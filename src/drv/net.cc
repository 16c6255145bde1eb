#include "src/drv/net.h"

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
  // Serves one tx request: the status to answer with now, or nullopt once
  // the frame is on the wire (its completion answers it) or dropped. A
  // lambda so that the core's drain, instantiated here, inlines it.
  auto serve = [this](XenbusBackend::Channel& vif,
                      const NetRingRequest& request)
      -> std::optional<std::int8_t> {
    if (request.bytes > kMaxFrameBytes) {
      // The size is guest-written: a "frame" of gigabytes would hold the
      // shared NIC for seconds. Refuse it without touching the NIC.
      Drop();
      return kNetStatusFailed;
    }
    if (tx_fault_hook_ && tx_fault_hook_(vif.guest, request)) {
      // Injected drop: the frame vanishes with no response, exactly like a
      // frame lost mid-reboot. The frontend's deadline handles it.
      Drop();
      return std::nullopt;
    }
    ++frames_forwarded_;
    m_tx_frames_->Increment();
    // The NIC serializes frames at link rate internally, so submitting the
    // whole batch at drain time preserves each frame's wire time.
    nic_->Transmit(request.bytes, [this, guest = vif.guest, id = request.id] {
      xenbus_.Respond<NetRing>(guest, id, 0);
    });
    return std::nullopt;
  };
  return xenbus_.Attach<NetRing>(
      guest, std::make_unique<XenbusBackend::Channel>(), serve);
}

void NetBack::Suspend() {
  nic_->clear_rx_handler();
  xenbus_.Suspend();
}

void NetBack::Drop() {
  ++frames_dropped_;
  m_dropped_->Increment();
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
