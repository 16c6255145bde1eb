#include "src/drv/net.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace xoar {

// --- NetBack -----------------------------------------------------------------

NetBack::NetBack(Hypervisor* hv, XenStoreService* xs, DomainId self,
                 NicDevice* nic)
    : nic_(nic),
      m_tx_frames_(hv->obs()->metrics().GetCounter("NetBack.ring.tx_frames")),
      m_rx_frames_(hv->obs()->metrics().GetCounter("NetBack.ring.rx_frames")),
      m_dropped_(hv->obs()->metrics().GetCounter("NetBack.ring.dropped")),
      xenbus_(kVifDevice, hv, xs, self) {}

Status NetBack::AttachVif(DomainId guest) {
  return xenbus_.Attach(guest, std::make_unique<XenbusBackend::Channel>(),
                        [this, guest] { ServiceTxRing(guest); });
}

void NetBack::Suspend() {
  nic_->clear_rx_handler();
  xenbus_.Suspend();
}

void NetBack::Drop() {
  ++frames_dropped_;
  m_dropped_->Increment();
}

void NetBack::ServiceTxRing(DomainId guest) {
  XenbusBackend::Channel* vif = xenbus_.Live(guest);
  if (vif == nullptr || vif->drain_scheduled) {
    return;
  }
  // One drain event per kick (demux overhead charged once per batch), not
  // one simulator event per frame; see BlkBack::ServiceRing.
  vif->drain_scheduled = true;
  const SimDuration overhead = static_cast<SimDuration>(
      static_cast<double>(kNetBackPerFrameOverhead) /
      std::max(0.05, rate_multiplier_));
  xenbus_.sim()->ScheduleAfter(overhead, [this, guest] { DrainTxRing(guest); });
}

void NetBack::DrainTxRing(DomainId guest) {
  XenbusBackend::Channel* vif = xenbus_.Find(guest);
  if (vif == nullptr) {
    return;
  }
  vif->drain_scheduled = false;
  if (!vif->connected || !xenbus_.available()) {
    return;  // vif torn down while the drain was in flight
  }
  NetRing ring = NetRing::Attach(vif->rings[0]);
  bool pushed_response = false;
  std::uint32_t budget = kNetBackDrainBudget;
  while (budget > 0) {
    auto req = ring.PopRequest();
    if (!req) {
      break;
    }
    --budget;
    const NetRingRequest request = *req;
    if (request.bytes > kMaxFrameBytes) {
      // The size is guest-written: a "frame" of gigabytes would hold the
      // shared NIC for seconds. Refuse it without touching the NIC; one
      // notification covers every refusal in this drain.
      Drop();
      ring.PushResponse(NetRingResponse{request.id, kNetStatusFailed});
      pushed_response = true;
      continue;
    }
    if (tx_fault_hook_ && tx_fault_hook_(guest, request)) {
      // Injected drop: the frame vanishes with no response, exactly like a
      // frame lost mid-reboot. The frontend's deadline handles it.
      Drop();
      continue;
    }
    ++frames_forwarded_;
    m_tx_frames_->Increment();
    // The NIC serializes frames at link rate internally, so submitting the
    // whole batch at drain time preserves each frame's wire time.
    nic_->Transmit(request.bytes, [this, guest, request] {
      XenbusBackend::Channel* live = xenbus_.Live(guest);
      if (live == nullptr) {
        return;  // frame lost mid-reboot; the guest's TCP retransmits
      }
      NetRing r = NetRing::Attach(live->rings[0]);
      if (r.PushResponse(NetRingResponse{request.id, 0})) {
        (void)xenbus_.hv()->EvtchnSend(xenbus_.self(), live->port);
      }
    });
  }
  if (pushed_response) {
    (void)xenbus_.hv()->EvtchnSend(xenbus_.self(), vif->port);
  }
  // Final re-check: frames pushed while we drained, or left by the budget,
  // get their own drain event (RING_FINAL_CHECK_FOR_REQUESTS idiom).
  if (ring.PendingRequests() > 0) {
    ServiceTxRing(guest);
  }
}

bool NetBack::InjectRx(DomainId guest, std::uint32_t bytes) {
  XenbusBackend::Channel* vif = xenbus_.Live(guest);
  if (vif == nullptr || !nic_->link_up()) {
    Drop();
    return false;
  }
  // Role-swapped ring: the backend produces rx "requests" the frontend
  // consumes.
  NetRing ring = NetRing::Attach(vif->rings[1]);
  if (!ring.PushRequest(NetRingRequest{0, bytes})) {
    Drop();  // frontend rx ring overrun
    return false;
  }
  ++frames_forwarded_;
  m_rx_frames_->Increment();
  (void)xenbus_.hv()->EvtchnSend(xenbus_.self(), vif->port);
  return true;
}

// --- NetFront ----------------------------------------------------------------

Status NetFront::Connect() {
  return xenbus_.Connect([this] { OnEvent(); });
}

void NetFront::SendFrame(std::uint32_t bytes, TxDone done) {
  xenbus_.Enqueue(NetRingRequest{0, bytes}, std::move(done));
  xenbus_.Pump();
}

void NetFront::OnEvent() {
  xenbus_.CompleteResponses();
  // Drain rx arrivals (role-swapped ring: we consume requests).
  NetRing rx_ring = NetRing::Attach(xenbus_.ring_page(1));
  while (auto frame = rx_ring.PopRequest()) {
    ++rx_frames_;
    if (rx_handler_) {
      rx_handler_(frame->bytes);
    }
  }
  xenbus_.Pump();
}

}  // namespace xoar
