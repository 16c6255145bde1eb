// Paravirtual block split driver (§4.5.1, §5.4).
//
// BlkFront runs in a guest and exposes an asynchronous sector-I/O API; it
// communicates with BlkBack over a grant-mapped I/O ring plus an event
// channel, negotiated via XenStore per the XenBus protocol (xenbus.h, which
// also holds the retry ladders). BlkBack hosts the physical disk driver: it
// virtualizes one disk controller into per-guest virtual block devices
// (VBDs), each backed by a byte range of the disk (a disk image). BlkBack
// also runs the small proxy daemon the Toolstack uses to create/inspect
// images after the Toolstack was split out of the driver domain (§5.4).
//
// BlkBack is restartable: Suspend() drops its device state and mappings
// (requests in flight are lost); Resume() re-advertises the backend, and
// frontends renegotiate through XenStore, retransmitting outstanding
// requests — the crash-only recovery loop of §3.3.
#ifndef XOAR_SRC_DRV_BLK_H_
#define XOAR_SRC_DRV_BLK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/dev/disk.h"
#include "src/drv/xenbus.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
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
  std::int8_t status;  // 0 = OK, kBlkStatusFailed or kRingStatusTransient
};

// Permanent failure: the request itself is bad (out of range for the VBD).
// Retryable faults answer kRingStatusTransient (xenbus.h).
constexpr std::int8_t kBlkStatusFailed = -1;

using BlkRing = IoRing<BlkRingRequest, BlkRingResponse, 32>;

// The request_timeout default must comfortably exceed worst-case queueing +
// disk service time — a full 32-deep ring of random-offset requests queues
// ~430 ms behind seek costs — or healthy requests get retransmitted as
// duplicate disk writes.
inline constexpr XenbusDevice kVbdDevice = {
    .type = "vbd",
    .noun = "VBD",
    .ring_keys = {"ring-ref", nullptr},
    .rings = 1,
    .backend = "BlkBack",
    .frontend = "BlkFront",
    .back_tag = "blkback",
    .front_tag = "blkfront",
    .io = "block I/O",
    .request_timeout = 2 * kSecond,
};

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
  // request. Returning true makes the backend answer kRingStatusTransient
  // without touching the disk — a transient EIO the frontend absorbs via
  // retry/backoff.
  using IoFaultHook =
      std::function<bool(DomainId guest, const BlkRingRequest& request)>;

  // `BlkBack.ring.*` / `BlkBack.vbd.*` counters and kDriver trace events go
  // to the hypervisor's Obs.
  BlkBack(Hypervisor* hv, XenStoreService* xs, DomainId self,
          DiskDevice* disk);

  // Registers the backend root in XenStore.
  Status Initialize() { return xenbus_.Initialize(); }

  DomainId self() const { return xenbus_.self(); }
  bool available() const { return xenbus_.available(); }

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
  Status DetachVbd(DomainId guest) { return xenbus_.Detach(guest); }

  // --- Microreboot hooks (driven by the restart engine in src/core) ---

  void Suspend() { xenbus_.Suspend(); }
  void Resume() { xenbus_.Resume(); }

  bool IsVbdConnected(DomainId guest) const {
    return xenbus_.IsConnected(guest);
  }

  // Slowdown multiplier applied to per-op overhead (control-VM co-location
  // interference; 1.0 = isolated driver domain).
  void set_overhead_multiplier(double m) { overhead_multiplier_ = m; }

  void set_io_fault_hook(IoFaultHook hook) { io_fault_hook_ = std::move(hook); }

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }

 private:
  struct Image {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    int bound_vbds = 0;  // DeleteImage refuses while any VBD is bound
  };

  // A VBD is the XenBus channel plus the image it serves; it holds one
  // binding of that image for as long as it exists.
  struct Vbd : XenbusBackend::Channel {
    explicit Vbd(Image* bound) : image(bound) { ++image->bound_vbds; }
    ~Vbd() override { --image->bound_vbds; }
    Image* image;
  };

  void ServiceRing(DomainId guest);
  void DrainRing(DomainId guest);

  DiskDevice* disk_;
  double overhead_multiplier_ = 1.0;
  IoFaultHook io_fault_hook_;
  std::map<std::string, Image> images_;
  // The first 64 MiB of the disk are reserved for metadata.
  ExtentAllocator extents_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t bytes_moved_ = 0;
  Counter* m_requests_;  // BlkBack.ring.requests
  Counter* m_bytes_;     // BlkBack.ring.bytes
  // Declared after images_: destroying it destroys the VBDs, which release
  // their image bindings.
  XenbusBackend xenbus_;
};

class BlkFront {
  using Xenbus = XenbusFrontend<BlkRing, kVbdDevice>;

 public:
  using IoDone = std::function<void(Status)>;
  // Retry/backoff tuning (RESILIENCE.md "Tuning knobs"); request_timeout is
  // the on-ring response deadline per attempt, 2 s by default.
  using RetryConfig = Xenbus::RetryConfig;

  BlkFront(Hypervisor* hv, XenStoreService* xs, DomainId self,
           DomainId backend)
      : xenbus_(hv, xs, self, backend) {}

  // Runs the frontend side of the XenBus handshake. Also watches the
  // backend state so a microrebooted backend triggers renegotiation.
  Status Connect();

  bool connected() const { return xenbus_.connected(); }
  DomainId backend() const { return xenbus_.backend(); }

  // Asynchronous sector I/O. While disconnected (backend rebooting),
  // requests queue and are retransmitted after reconnection. Transient
  // backend errors and response timeouts are retried with exponential
  // backoff; `done` sees UNAVAILABLE only after retry exhaustion.
  void SubmitIo(std::uint64_t sector, std::uint32_t sector_count,
                bool is_write, IoDone done);

  // Convenience: byte-addressed I/O rounded to sectors.
  void ReadBytes(std::uint64_t offset, std::uint64_t bytes, IoDone done);
  void WriteBytes(std::uint64_t offset, std::uint64_t bytes, IoDone done);

  void set_retry_config(const RetryConfig& config) {
    xenbus_.set_retry_config(config);
  }
  const RetryConfig& retry_config() const { return xenbus_.retry_config(); }

  std::uint64_t completed_ios() const { return xenbus_.completed(); }
  std::uint64_t retransmitted_ios() const { return xenbus_.retransmits(); }
  std::size_t outstanding_ios() const { return xenbus_.outstanding(); }
  std::uint64_t retry_attempts() const { return xenbus_.retry_attempts(); }
  std::uint64_t retry_recovered() const { return xenbus_.retry_recovered(); }
  std::uint64_t retry_exhausted() const { return xenbus_.retry_exhausted(); }

 private:
  Xenbus xenbus_;
};

}  // namespace xoar

#endif  // XOAR_SRC_DRV_BLK_H_
