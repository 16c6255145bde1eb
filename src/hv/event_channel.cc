#include "src/hv/event_channel.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

std::string_view VirqName(Virq virq) {
  switch (virq) {
    case Virq::kConsole:
      return "console";
    case Virq::kTimer:
      return "timer";
    case Virq::kDebug:
      return "debug";
    case Virq::kDomExc:
      return "dom_exc";
    case Virq::kCount:
      break;
  }
  return "unknown";
}

EventChannelManager::Channel* EventChannelManager::Find(DomainId domain,
                                                        EvtchnPort port) const {
  if (domain.value() >= domains_.size()) {
    return nullptr;
  }
  const auto& channels = domains_[domain.value()].channels;
  return port.value() < channels.size() ? channels[port.value()].get()
                                        : nullptr;
}

EvtchnPort EventChannelManager::Add(DomainId domain, Channel channel) {
  if (domain.value() >= domains_.size()) {
    domains_.resize(std::size_t{domain.value()} + 1);
  }
  DomainPorts& ports = domains_[domain.value()];
  const EvtchnPort port(ports.next_port++);
  ports.channels.resize(std::size_t{port.value()} + 1);
  ports.channels[port.value()] = std::make_unique<Channel>(std::move(channel));
  return port;
}

StatusOr<EvtchnPort> EventChannelManager::AllocUnbound(DomainId owner,
                                                       DomainId remote) {
  if (!owner.valid() || !remote.valid()) {
    return InvalidArgumentError("invalid domain for alloc_unbound");
  }
  Channel channel;
  channel.state = ChannelState::kUnbound;
  channel.remote = remote;
  return Add(owner, std::move(channel));
}

StatusOr<EvtchnPort> EventChannelManager::BindInterdomain(
    DomainId caller, DomainId remote, EvtchnPort remote_port) {
  Channel* remote_channel = Find(remote, remote_port);
  if (remote_channel == nullptr) {
    return NotFoundError(StrFormat("no unbound port %u on dom%u",
                                   remote_port.value(), remote.value()));
  }
  if (remote_channel->state != ChannelState::kUnbound) {
    return FailedPreconditionError("remote port is not unbound");
  }
  if (remote_channel->remote != caller) {
    return PermissionDeniedError(
        StrFormat("port %u on dom%u is reserved for dom%u, not dom%u",
                  remote_port.value(), remote.value(),
                  remote_channel->remote.value(), caller.value()));
  }
  Channel local;
  local.state = ChannelState::kConnected;
  local.remote = remote;
  local.remote_port = remote_port;
  const EvtchnPort local_port = Add(caller, std::move(local));
  // Channels never move, so remote_channel survives the growth of the rows.
  remote_channel->state = ChannelState::kConnected;
  remote_channel->remote = caller;
  remote_channel->remote_port = local_port;
  return local_port;
}

StatusOr<EvtchnPort> EventChannelManager::BindVirq(DomainId domain, Virq virq) {
  if (!domain.valid() || virq >= Virq::kCount) {
    return InvalidArgumentError("invalid domain or virq for bind_virq");
  }
  // One binding per VIRQ per domain.
  if (VirqPort(domain, virq).valid()) {
    return AlreadyExistsError(StrFormat("virq %d already bound on dom%u",
                                        static_cast<int>(virq),
                                        domain.value()));
  }
  Channel channel;
  channel.state = ChannelState::kVirq;
  channel.virq = virq;
  const EvtchnPort port = Add(domain, std::move(channel));
  domains_[domain.value()].virq_ports[static_cast<std::size_t>(virq)] = port;
  return port;
}

Status EventChannelManager::SetHandler(DomainId domain, EvtchnPort port,
                                       Handler handler) {
  Channel* channel = Find(domain, port);
  if (channel == nullptr) {
    return NotFoundError("no such event channel");
  }
  channel->handler = std::move(handler);
  return Status::Ok();
}

Status EventChannelManager::Send(DomainId caller, EvtchnPort port) {
  Channel* channel = Find(caller, port);
  if (channel == nullptr) {
    return NotFoundError(StrFormat("dom%u has no port %u", caller.value(),
                                   port.value()));
  }
  if (channel->state == ChannelState::kBroken) {
    return UnavailableError("peer end of event channel is closed");
  }
  if (channel->state != ChannelState::kConnected) {
    return FailedPreconditionError("event channel not connected");
  }
  ++sends_;
  m_sends_->Increment();
  obs_->tracer().Op(TraceCategory::kEvtchn, "evtchn_send", caller.value());
  SimDuration latency = kEventDeliveryLatency;
  if (send_fault_hook_) {
    const SendFaultDecision decision = send_fault_hook_(caller, port);
    if (decision.action == SendFaultAction::kDrop) {
      // The notification is lost in flight; the sender already observed
      // success. Receivers recover via their request timeouts (§RESILIENCE).
      return Status::Ok();
    }
    if (decision.action == SendFaultAction::kDelay) {
      latency += decision.extra_delay;
    }
  }
  const DomainId remote = channel->remote;
  const EvtchnPort remote_port = channel->remote_port;
  sim_->ScheduleAfter(latency, [this, remote, remote_port] {
    const Channel* peer = Find(remote, remote_port);
    if (peer != nullptr && peer->handler &&
        peer->state == ChannelState::kConnected) {
      ++deliveries_;
      m_deliveries_->Increment();
      obs_->tracer().Op(TraceCategory::kEvtchn, "evtchn_deliver",
                        remote.value());
      peer->handler();
    }
  });
  return Status::Ok();
}

EvtchnPort EventChannelManager::VirqPort(DomainId domain, Virq virq) const {
  return domain.value() < domains_.size() && virq < Virq::kCount
             ? domains_[domain.value()]
                   .virq_ports[static_cast<std::size_t>(virq)]
             : EvtchnPort::Invalid();
}

Status EventChannelManager::RaiseVirq(DomainId domain, Virq virq) {
  const EvtchnPort port = VirqPort(domain, virq);
  if (!port.valid()) {
    return NotFoundError(StrFormat("dom%u has no binding for virq %s",
                                   domain.value(),
                                   std::string(VirqName(virq)).c_str()));
  }
  Channel* channel = Find(domain, port);
  if (channel != nullptr && channel->handler) {
    // Copy the handler: the channel may be closed before delivery fires.
    Handler handler = channel->handler;
    sim_->ScheduleAfter(kEventDeliveryLatency,
                        [handler = std::move(handler)] { handler(); });
    ++deliveries_;
    m_deliveries_->Increment();
  }
  return Status::Ok();
}

void EventChannelManager::Release(DomainPorts& ports, EvtchnPort port) {
  std::unique_ptr<Channel>& channel = ports.channels[port.value()];
  if (channel->state == ChannelState::kConnected) {
    Channel* peer = Find(channel->remote, channel->remote_port);
    if (peer != nullptr) {
      peer->state = ChannelState::kBroken;
    }
  } else if (channel->state == ChannelState::kVirq) {
    ports.virq_ports[static_cast<std::size_t>(channel->virq)] =
        EvtchnPort::Invalid();
  }
  channel.reset();
}

Status EventChannelManager::Close(DomainId domain, EvtchnPort port) {
  if (Find(domain, port) == nullptr) {
    return NotFoundError("no such event channel");
  }
  Release(domains_[domain.value()], port);
  return Status::Ok();
}

int EventChannelManager::CloseAll(DomainId domain) {
  if (domain.value() >= domains_.size()) {
    return 0;
  }
  DomainPorts& ports = domains_[domain.value()];
  int closed = 0;
  for (std::uint32_t port = 0; port < ports.channels.size(); ++port) {
    if (ports.channels[port] != nullptr) {
      Release(ports, EvtchnPort(port));
      ++closed;
    }
  }
  // Free the row; next_port stays, so no port number is ever reused.
  std::vector<std::unique_ptr<Channel>>().swap(ports.channels);
  return closed;
}

std::size_t EventChannelManager::OpenPorts(DomainId domain) const {
  if (domain.value() >= domains_.size()) {
    return 0;
  }
  const auto& channels = domains_[domain.value()].channels;
  return static_cast<std::size_t>(
      std::count_if(channels.begin(), channels.end(),
                    [](const auto& channel) { return channel != nullptr; }));
}

bool EventChannelManager::IsConnected(DomainId domain, EvtchnPort port) const {
  const Channel* channel = Find(domain, port);
  return channel != nullptr && channel->state == ChannelState::kConnected;
}

}  // namespace xoar
