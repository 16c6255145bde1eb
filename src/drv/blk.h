// Paravirtual block split driver (§4.5.1, §5.4).
//
// BlkFront runs in a guest and exposes an asynchronous sector-I/O API; it
// communicates with BlkBack over a grant-mapped I/O ring plus an event
// channel, negotiated via XenStore per the XenBus protocol. BlkBack hosts
// the physical disk driver: it virtualizes one disk controller into
// per-guest virtual block devices (VBDs), each backed by a byte range of
// the disk (a disk image). BlkBack also runs the small proxy daemon the
// Toolstack uses to create/inspect images after the Toolstack was split
// out of the driver domain (§5.4).
//
// BlkBack is restartable: Suspend() drops its device state and mappings
// (frames in flight are lost); Resume() re-advertises the backend, and
// frontends renegotiate through XenStore, retransmitting outstanding
// requests — the crash-only recovery loop of §3.3.
//
// Resilience (RESILIENCE.md): every request the frontend puts on the ring
// carries a simulated-time response deadline. A timed-out or transiently
// failed request is retried with bounded exponential backoff; exhaustion
// surfaces UNAVAILABLE to the caller. XenStore reads/writes on the
// handshake path are retried the same way, so an injected XenStore timeout
// delays reconnection instead of wedging it.
#ifndef XOAR_SRC_DRV_BLK_H_
#define XOAR_SRC_DRV_BLK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/backoff.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/dev/disk.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace xoar {

// One 512-byte-sector I/O request as carried on the ring.
struct BlkRingRequest {
  std::uint64_t id;
  std::uint64_t sector;
  std::uint32_t sector_count;
  std::uint8_t is_write;
};

struct BlkRingResponse {
  std::uint64_t id;
  std::int8_t status;  // 0 = OK, else kBlkStatus*
};

// Ring response status codes. kBlkStatusFailed is permanent (the request
// itself is bad — out of range for the VBD); kBlkStatusTransient marks a
// retryable backend-side fault (an injected EIO): the frontend retries it
// with backoff instead of failing the caller.
constexpr std::int8_t kBlkStatusFailed = -1;
constexpr std::int8_t kBlkStatusTransient = -2;

using BlkRing = IoRing<BlkRingRequest, BlkRingResponse, 32>;

constexpr std::uint32_t kSectorSize = 512;

// Per-request backend CPU overhead (request demux + completion).
constexpr SimDuration kBlkBackPerOpOverhead = 15 * kMicrosecond;

// Requests processed per scheduled ring drain. One notification schedules
// one drain event that services up to this many requests (Xen's
// RING_FINAL_CHECK_FOR_REQUESTS idiom) instead of one simulator event per
// request; requests left over — or pushed while the drain ran — get a
// follow-up drain event, so work per event stays bounded.
constexpr std::uint32_t kBlkBackDrainBudget = BlkRing::kEntries;

// First-fit extent allocator over the byte range [begin, end) of a disk.
// Free space is kept as an offset-ordered map of maximal free runs: freeing
// coalesces a run with its neighbours, so the runs are exactly the gaps
// between live extents, and allocating takes the lowest run long enough.
// The cost is O(log runs) plus one step per lower run too short for the
// request (none when every image has the same size).
class ExtentAllocator {
 public:
  ExtentAllocator(std::uint64_t begin, std::uint64_t end);

  // Offset of a new extent of `bytes`; nullopt when no free run fits. A
  // zero-byte extent occupies nothing and is placed at `begin`.
  std::optional<std::uint64_t> Allocate(std::uint64_t bytes);
  // Returns an extent handed out by Allocate.
  void Free(std::uint64_t offset, std::uint64_t bytes);

 private:
  std::uint64_t begin_;
  std::uint64_t end_;
  std::map<std::uint64_t, std::uint64_t> runs_;  // offset -> length
};

class BlkBack {
 public:
  // Fault-injection hook (src/fault), consulted once per popped ring
  // request. Returning true makes the backend answer kBlkStatusTransient
  // without touching the disk — a transient EIO the frontend absorbs via
  // retry/backoff.
  using IoFaultHook =
      std::function<bool(DomainId guest, const BlkRingRequest& request)>;

  // `obs` receives `BlkBack.ring.*` / `BlkBack.vbd.*` counters and kDriver
  // trace events; nullptr falls back to Obs::Global().
  BlkBack(Hypervisor* hv, XenStoreService* xs, Simulator* sim, DomainId self,
          DiskDevice* disk, Obs* obs = nullptr);

  // Registers the backend root and its XenStore watch.
  Status Initialize();

  DomainId self() const { return self_; }
  bool available() const { return available_; }

  // --- Disk image proxy (the §5.4 daemon) ---

  // Carves a named image out of the disk; the Toolstack calls this instead
  // of manipulating files itself.
  Status CreateImage(const std::string& name, std::uint64_t bytes);
  StatusOr<std::uint64_t> ImageSize(const std::string& name) const;
  // Releases an image's extent back to the disk (first-fit reuse). Fails
  // while a VBD is still bound to it (until DetachVbd). Destroying a guest
  // without deleting its image fills the disk after enough create/destroy
  // churn — exactly what a migration-heavy fleet does.
  Status DeleteImage(const std::string& name);

  // Binds a guest's VBD to an image. Called by the Toolstack when attaching
  // a virtual disk; the data-path handshake then runs over XenStore.
  Status BindImage(DomainId guest, const std::string& image);
  // Tears down a guest's VBD completely: disconnect the ring, drop the
  // frontend-state watch, forget the guest. The destroy-side counterpart
  // of BindImage (Suspend/Resume keep VBDs, this does not).
  Status DetachVbd(DomainId guest);

  // --- Microreboot hooks (driven by the restart engine in src/core) ---

  void Suspend();
  void Resume();

  bool IsVbdConnected(DomainId guest) const;

  // Slowdown multiplier applied to per-op overhead (control-VM co-location
  // interference; 1.0 = isolated driver domain).
  void set_overhead_multiplier(double m) { overhead_multiplier_ = m; }

  void set_io_fault_hook(IoFaultHook hook) { io_fault_hook_ = std::move(hook); }

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  struct Vbd {
    DomainId guest;
    std::string image;
    std::uint64_t base_offset = 0;
    std::uint64_t size_bytes = 0;
    bool connected = false;
    GrantRef ring_gref;
    std::byte* ring_page = nullptr;
    EvtchnPort port;
    // Reconnect retry state: a transiently failed ConnectVbd (XenStore down
    // mid-handshake, injected grant-map failure) is retried on this ladder
    // because nothing else re-fires the frontend-state watch.
    ExponentialBackoff connect_backoff;
    bool retry_pending = false;
    // Coalesces ring notifications: while a drain event is in flight,
    // further kicks are absorbed by the pending drain's final re-check.
    bool drain_scheduled = false;
  };

  void OnFrontendStateChange(DomainId guest);
  Status ConnectVbd(Vbd& vbd);
  void ScheduleConnectRetry(DomainId guest);
  void DisconnectVbd(Vbd& vbd);
  void ServiceRing(DomainId guest);
  void DrainRing(DomainId guest);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  DiskDevice* disk_;
  bool available_ = false;
  double overhead_multiplier_ = 1.0;
  IoFaultHook io_fault_hook_;
  // Resume() must eventually get its InitWait re-advertisement into
  // XenStore or no frontend ever renegotiates; retried unbounded at capped
  // delay when XenStore itself is down (RESILIENCE.md).
  ExponentialBackoff resume_backoff_;
  bool resume_retry_pending_ = false;
  std::map<DomainId, Vbd> vbds_;

  struct Image {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    int bound_vbds = 0;  // DeleteImage refuses while any VBD is bound
  };
  std::map<std::string, Image> images_;
  // The first 64 MiB of the disk are reserved for metadata.
  ExtentAllocator extents_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t bytes_moved_ = 0;
  Obs* obs_;
  Counter* m_requests_;      // BlkBack.ring.requests
  Counter* m_bytes_;         // BlkBack.ring.bytes
  Counter* m_vbd_connects_;  // BlkBack.vbd.connects
};

class BlkFront {
 public:
  using IoDone = std::function<void(Status)>;

  // Retry/backoff tuning (RESILIENCE.md "Tuning knobs"). request_timeout is
  // the on-ring response deadline per attempt; it must comfortably exceed
  // worst-case queueing + disk service time — a full 32-deep ring of
  // random-offset requests queues ~430 ms behind seek costs — or healthy
  // requests get retransmitted as duplicate disk writes.
  struct RetryConfig {
    BackoffPolicy backoff;
    SimDuration request_timeout = 2 * kSecond;
  };

  BlkFront(Hypervisor* hv, XenStoreService* xs, Simulator* sim, DomainId self,
           DomainId backend);
  ~BlkFront();

  // Runs the frontend side of the XenBus handshake. Also watches the
  // backend state so a microrebooted backend triggers renegotiation.
  Status Connect();

  bool connected() const { return connected_; }
  DomainId backend() const { return backend_; }

  // Asynchronous sector I/O. While disconnected (backend rebooting),
  // requests queue and are retransmitted after reconnection. Transient
  // backend errors and response timeouts are retried with exponential
  // backoff; `done` sees UNAVAILABLE only after retry exhaustion.
  void SubmitIo(std::uint64_t sector, std::uint32_t sector_count,
                bool is_write, IoDone done);

  // Convenience: byte-addressed I/O rounded to sectors.
  void ReadBytes(std::uint64_t offset, std::uint64_t bytes, IoDone done);
  void WriteBytes(std::uint64_t offset, std::uint64_t bytes, IoDone done);

  void set_retry_config(const RetryConfig& config);
  const RetryConfig& retry_config() const { return retry_; }

  std::uint64_t completed_ios() const { return completed_ios_; }
  std::uint64_t retransmitted_ios() const { return retransmits_; }
  std::size_t outstanding_ios() const { return outstanding_.size(); }
  std::uint64_t retry_attempts() const { return retry_attempts_; }
  std::uint64_t retry_recovered() const { return retry_recovered_; }
  std::uint64_t retry_exhausted() const { return retry_exhausted_; }

 private:
  struct PendingIo {
    BlkRingRequest request;
    IoDone done;
    int attempts = 0;  // backoff retries so far (reconnects not counted)
    EventId timeout_event = EventId::Invalid();
  };

  void Republish();
  Status DoRepublish();
  void OnBackendStateChange();
  void ScheduleXsRetry(bool republish);
  void PumpQueue();
  void OnResponse();
  void OnRequestTimeout(std::uint64_t id);
  void RetryIo(PendingIo io);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  DomainId backend_;
  bool connected_ = false;
  bool handshake_started_ = false;
  bool awaiting_connect_ = false;
  Pfn ring_pfn_;
  std::byte* ring_page_ = nullptr;
  GrantRef ring_gref_;
  EvtchnPort port_;
  std::uint64_t next_id_ = 1;
  RetryConfig retry_;
  ExponentialBackoff xs_backoff_;
  bool xs_retry_pending_ = false;
  bool xs_retry_republish_ = false;
  std::deque<PendingIo> queue_;                  // not yet on the ring
  std::map<std::uint64_t, PendingIo> outstanding_;  // on the ring, unanswered
  std::uint64_t completed_ios_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t retry_recovered_ = 0;
  std::uint64_t retry_exhausted_ = 0;
  Counter* m_retry_attempts_;   // BlkFront.retry.attempts
  Counter* m_retry_recovered_;  // BlkFront.retry.recovered
  Counter* m_retry_exhausted_;  // BlkFront.retry.exhausted
  Histogram* m_backoff_ms_;     // BlkFront.retry.backoff_ms
  // Frontends die with their guest while the simulation keeps running;
  // every scheduled callback checks this guard so late timers and watch
  // events can't touch a destroyed frontend.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace xoar

#endif  // XOAR_SRC_DRV_BLK_H_
