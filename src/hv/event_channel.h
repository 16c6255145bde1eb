// Event channels (§4.2): data-free signalling between domains and from the
// hypervisor (VIRQs).
//
// Bi-directional interdomain channels connect two (domain, port) endpoints;
// a Send on one side schedules the registered handler on the other after a
// small delivery latency. Uni-directional VIRQs deliver virtualized hardware
// interrupts. Handlers model the guest kernel's upcall path.
#ifndef XOAR_SRC_HV_EVENT_CHANNEL_H_
#define XOAR_SRC_HV_EVENT_CHANNEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {

enum class Virq : std::uint8_t {
  kConsole = 0,  // serial console input, owned by the hypervisor
  kTimer,
  kDebug,
  kDomExc,  // domain exception (crash notification to the control plane)
  kCount,
};

std::string_view VirqName(Virq virq);

// Latency from evtchn_send to the peer's handler running.
constexpr SimDuration kEventDeliveryLatency = 1 * kMicrosecond;

// What a fault-injection hook may do to one Send() (src/fault). kDrop
// silently loses the notification — the sender still sees success, which is
// exactly what a lost interrupt looks like; kDelay adds extra_delay to the
// delivery latency.
enum class SendFaultAction { kDeliver, kDrop, kDelay };

struct SendFaultDecision {
  SendFaultAction action = SendFaultAction::kDeliver;
  SimDuration extra_delay = 0;  // only read for kDelay
};

class EventChannelManager {
 public:
  using Handler = std::function<void()>;

  // Fault-injection hook, consulted once per Send() after all state checks
  // pass (DESIGN.md §5c: injection sites sit after validation so error
  // semantics stay unchanged). Must not call back into the manager. Unset
  // or returning kDeliver means normal delivery.
  using SendFaultHook =
      std::function<SendFaultDecision(DomainId caller, EvtchnPort port)>;

  // `obs` receives `hv.evtchn.*` counters and kEvtchn trace instants.
  EventChannelManager(Simulator* sim, Obs* obs)
      : sim_(sim),
        obs_(obs),
        m_sends_(obs_->metrics().GetCounter("hv.evtchn.sends")),
        m_deliveries_(obs_->metrics().GetCounter("hv.evtchn.deliveries")) {}

  // Allocates an unbound port on `owner` that only `remote` may bind.
  StatusOr<EvtchnPort> AllocUnbound(DomainId owner, DomainId remote);

  // Binds a local port on `caller` to an unbound port `remote_port` on
  // `remote`. Completes the interdomain pair.
  StatusOr<EvtchnPort> BindInterdomain(DomainId caller, DomainId remote,
                                       EvtchnPort remote_port);

  // Binds a VIRQ to a fresh local port.
  StatusOr<EvtchnPort> BindVirq(DomainId domain, Virq virq);

  // Registers the upcall handler for a local port.
  Status SetHandler(DomainId domain, EvtchnPort port, Handler handler);

  // Signals the peer of an interdomain channel.
  Status Send(DomainId caller, EvtchnPort port);

  // Raises a VIRQ into `domain` if it has bound one.
  Status RaiseVirq(DomainId domain, Virq virq);

  // Closes a local port; the peer end (if any) is marked broken so later
  // sends fail with UNAVAILABLE — this is what a frontend observes when its
  // backend reboots, triggering reconnection (§3.3).
  Status Close(DomainId domain, EvtchnPort port);

  // Closes every port of `domain` (domain destruction / microreboot).
  int CloseAll(DomainId domain);

  // True if the channel exists and is connected to a live peer.
  bool IsConnected(DomainId domain, EvtchnPort port) const;
  // Ports of `domain` not yet closed, whatever their state.
  std::size_t OpenPorts(DomainId domain) const;

  void set_send_fault_hook(SendFaultHook hook) {
    send_fault_hook_ = std::move(hook);
  }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t deliveries() const { return deliveries_; }

 private:
  enum class ChannelState { kUnbound, kConnected, kVirq, kBroken };

  struct Channel {
    ChannelState state = ChannelState::kUnbound;
    DomainId remote;          // peer domain (or allowed binder while unbound)
    EvtchnPort remote_port;   // peer port when connected
    Virq virq = Virq::kCount;
    Handler handler;
  };

  // One domain's ports, like Xen's per-domain evtchn bucket array: `channels`
  // is indexed by port number and ports are never reused. Each Channel is
  // allocated on its own, so a handler that opens ports while it runs never
  // moves itself.
  struct DomainPorts {
    std::uint32_t next_port = 0;
    std::array<EvtchnPort, static_cast<std::size_t>(Virq::kCount)> virq_ports;
    std::vector<std::unique_ptr<Channel>> channels;
  };

  // Bounds-checked: an id or port nobody allocated is nullptr, never a new
  // slot, so guest-supplied numbers cannot grow the tables.
  Channel* Find(DomainId domain, EvtchnPort port) const;
  // The only way the tables grow: gives `channel` the next port of `domain`,
  // a caller the hypervisor has checked alive, never a number a guest wrote.
  EvtchnPort Add(DomainId domain, Channel channel);
  // The port bound to `virq` on `domain`; invalid when there is none.
  EvtchnPort VirqPort(DomainId domain, Virq virq) const;
  // Closes one channel: breaks its peer and releases its VIRQ binding.
  void Release(DomainPorts& ports, EvtchnPort port);

  Simulator* sim_;
  Obs* obs_;
  Counter* m_sends_;       // hv.evtchn.sends
  Counter* m_deliveries_;  // hv.evtchn.deliveries
  SendFaultHook send_fault_hook_;
  // Indexed by domain id, covering every domain that has opened a port.
  std::vector<DomainPorts> domains_;
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_EVENT_CHANNEL_H_
