// Paravirtual network split driver (§4.5.1, §5.4).
//
// NetFront exposes frame tx/rx to a guest; NetBack hosts the physical NIC
// driver and virtualizes it into per-guest virtual interfaces (vifs).
// Negotiation follows the XenBus protocol over XenStore (xenbus.h) with two
// rings per vif (tx and rx) in granted guest pages plus one event channel.
// The XenBus core also drains the tx ring; NetBack keeps the check and
// dispatch of one frame, and fills the rx ring itself (InjectRx).
//
// NetBack is the restartable component exercised by Fig 6.3 / Fig 6.5:
// Suspend() detaches the NIC and breaks every vif (frames in flight are
// lost, exactly what TCP sees as an outage); Resume() re-advertises the
// backend and frontends renegotiate via XenStore. NetFront retransmits
// unacknowledged tx frames on the XenBus core's deadline/backoff ladder.
#ifndef XOAR_SRC_DRV_NET_H_
#define XOAR_SRC_DRV_NET_H_

#include <cstdint>
#include <functional>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/dev/nic.h"
#include "src/drv/xenbus.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
#include "src/xs/service.h"

namespace xoar {

struct NetRingRequest {
  std::uint64_t id;
  std::uint32_t bytes;
};

struct NetRingResponse {
  std::uint64_t id;
  std::int8_t status;  // 0 = OK or kNetStatusFailed
};

// Permanent failure: the request itself is bad (larger than one frame).
constexpr std::int8_t kNetStatusFailed = -1;

// Largest tx request NetBack forwards: one Ethernet frame, a 1500-byte MTU
// plus the 14-byte header.
constexpr std::uint32_t kMaxFrameBytes = 1514;

using NetRing = IoRing<NetRingRequest, NetRingResponse, 32>;

// request_timeout is the per-frame acknowledgement deadline; it must
// exceed normal backend forwarding latency (microseconds here) by a wide
// margin or healthy frames get duplicated on the wire. The kick overhead is
// NetBack's demux, bridge and grant-copy work per tx drain.
inline constexpr XenbusDevice kVifDevice = {
    .type = "vif",
    .noun = "vif",
    .ring_keys = {"tx-ring-ref", "rx-ring-ref"},
    .rings = 2,
    .backend = "NetBack",
    .frontend = "NetFront",
    .back_tag = "netback",
    .front_tag = "netfront",
    .io = "tx",
    .request_timeout = 250 * kMillisecond,
    .kick_overhead = 4 * kMicrosecond,
};

class NetBack {
 public:
  // Fault-injection hook (src/fault), consulted once per popped tx request.
  // Returning true silently drops the frame — no response is ever pushed,
  // so the frontend's per-frame deadline expires and it retransmits. This
  // models a congested or faulty path rather than an explicit NACK.
  using TxFaultHook =
      std::function<bool(DomainId guest, const NetRingRequest& request)>;

  // `NetBack.ring.*` / `NetBack.vif.*` counters and kDriver trace events go
  // to the hypervisor's Obs.
  NetBack(Hypervisor* hv, XenStoreService* xs, DomainId self, NicDevice* nic);

  // Registers the backend root in XenStore.
  Status Initialize() { return xenbus_.Initialize(); }

  DomainId self() const { return xenbus_.self(); }
  NicDevice* nic() { return nic_; }
  bool available() const { return xenbus_.available(); }

  // Creates a vif record for `guest` and advertises the backend half.
  Status AttachVif(DomainId guest);
  // Tears the vif down completely: disconnect the rings, drop the
  // frontend-state watch, forget the guest. The destroy-side counterpart
  // of AttachVif (Suspend/Resume keep vifs, this does not).
  Status DetachVif(DomainId guest) { return xenbus_.Detach(guest); }

  // Frame arriving from the physical network destined for `guest`.
  // Dropped (returns false) while the backend or the vif is down.
  bool InjectRx(DomainId guest, std::uint32_t bytes);

  // --- Microreboot hooks ---
  void Suspend();
  void Resume() { xenbus_.Resume(); }

  bool IsVifConnected(DomainId guest) const {
    return xenbus_.IsConnected(guest);
  }

  // Effective deliverable rate for one guest's flow, in bits/second: the
  // link rate. Co-location interference (Fig 6.2) is the platform's to
  // apply.
  double EffectiveRateBps() const { return nic_->link_rate(); }

  void set_tx_fault_hook(TxFaultHook hook) { tx_fault_hook_ = std::move(hook); }

  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

 private:
  void Drop();  // counts one dropped frame

  NicDevice* nic_;
  TxFaultHook tx_fault_hook_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_dropped_ = 0;
  Counter* m_tx_frames_;  // NetBack.ring.tx_frames
  Counter* m_rx_frames_;  // NetBack.ring.rx_frames
  Counter* m_dropped_;    // NetBack.ring.dropped
  XenbusBackend xenbus_;
};

class NetFront {
  using Xenbus = XenbusFrontend<NetRing, kVifDevice>;

 public:
  using TxDone = std::function<void(Status)>;
  using RxHandler = std::function<void(std::uint32_t bytes)>;
  // Retry/backoff tuning (RESILIENCE.md "Tuning knobs"); request_timeout is
  // the per-frame acknowledgement deadline, 250 ms by default.
  using RetryConfig = Xenbus::RetryConfig;

  NetFront(Hypervisor* hv, XenStoreService* xs, DomainId self,
           DomainId backend)
      : xenbus_(hv, xs, self, backend) {}

  // Frontend half of the XenBus handshake; also arms reconnection on
  // backend microreboots.
  Status Connect();

  bool connected() const { return xenbus_.connected(); }
  DomainId backend() const { return xenbus_.backend(); }

  // Queues a frame for transmission; `done` fires when the backend has put
  // it on the wire. Frames queue while disconnected and flush on reconnect.
  // Unacknowledged frames are retransmitted with exponential backoff; `done`
  // sees UNAVAILABLE only after retry exhaustion.
  void SendFrame(std::uint32_t bytes, TxDone done);

  void set_rx_handler(RxHandler handler) { rx_handler_ = std::move(handler); }

  void set_retry_config(const RetryConfig& config) {
    xenbus_.set_retry_config(config);
  }
  const RetryConfig& retry_config() const { return xenbus_.retry_config(); }

  std::uint64_t tx_completed() const { return xenbus_.completed(); }
  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t retransmitted_frames() const { return xenbus_.retransmits(); }
  std::uint64_t retry_attempts() const { return xenbus_.retry_attempts(); }
  std::uint64_t retry_recovered() const { return xenbus_.retry_recovered(); }
  std::uint64_t retry_exhausted() const { return xenbus_.retry_exhausted(); }

 private:
  void OnEvent();  // tx completions and rx arrivals

  RxHandler rx_handler_;
  std::uint64_t rx_frames_ = 0;
  Xenbus xenbus_;
};

}  // namespace xoar

#endif  // XOAR_SRC_DRV_NET_H_
