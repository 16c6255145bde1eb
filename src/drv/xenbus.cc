#include "src/drv/xenbus.h"

#include <charconv>

namespace xoar {

std::optional<std::uint32_t> ParseXenbusU32(std::string_view text) {
  std::uint32_t value = 0;
  const char* end = text.data() + text.size();
  const auto [parsed_to, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || parsed_to != end) {
    return std::nullopt;
  }
  return value;
}

XenbusBackend::XenbusBackend(const XenbusDevice& device, Hypervisor* hv,
                             XenStoreService* xs, DomainId self)
    : device_(device),
      hv_(hv),
      xs_(xs),
      sim_(hv->sim()),
      obs_(hv->obs()),
      self_(self),
      connect_op_(StrFormat("%s_%s_connect", device.back_tag, device.type)),
      m_connects_(obs_->metrics().GetCounter(
          StrFormat("%s.%s.connects", device.backend, device.type))) {}

Status XenbusBackend::Initialize() {
  XOAR_RETURN_IF_ERROR(xs_->Mkdir(self_, BackendRoot(self_, device_.type)));
  available_ = true;
  obs_->tracer().Op(TraceCategory::kDriver,
                    StrFormat("%s_init", device_.back_tag), self_.value());
  return Status::Ok();
}

std::string XenbusBackend::StatePath(DomainId guest) const {
  return BackendDir(self_, guest, device_.type) + "/state";
}

std::string XenbusBackend::WatchToken(DomainId guest) const {
  return StrFormat("%s-%u", device_.back_tag, guest.value());
}

Status XenbusBackend::Adopt(DomainId guest, std::unique_ptr<Channel> channel) {
  if (!guest.valid()) {
    return InvalidArgumentError("invalid guest domain");
  }
  if (Find(guest) != nullptr) {
    return AlreadyExistsError(
        StrFormat("dom%u already has a %s on this backend", guest.value(),
                  device_.noun));
  }
  channel->guest = guest;
  if (guest.value() >= channels_.size()) {
    channels_.resize(std::size_t{guest.value()} + 1);
  }
  channels_[guest.value()] = std::move(channel);

  // Advertise the backend half and let the guest read our state.
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, BackendDir(self_, guest, device_.type) + "/frontend-id",
                 StrFormat("%u", guest.value())));
  const std::string state = StatePath(guest);
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, state, XenbusStateString(XenbusState::kInitWait)));
  XsNodePerms perms;
  perms.owner = self_;
  perms.acl[guest] = XsPerm::kRead;
  XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, state, perms));

  // Watch the frontend's state node; fires immediately (covers the case the
  // frontend published first) and again on every state change.
  return xs_->Watch(self_, FrontendDir(guest, device_.type) + "/state",
                    WatchToken(guest), [this, guest](const XsWatchEvent&) {
                      OnFrontendStateChange(guest);
                    });
}

void XenbusBackend::OnFrontendStateChange(DomainId guest) {
  Channel* channel = Find(guest);
  if (channel == nullptr || !available_) {
    return;
  }
  StatusOr<std::string> state =
      xs_->Read(self_, FrontendDir(guest, device_.type) + "/state");
  if (!state.ok()) {
    // A transiently unreadable frontend node (XenStore-Logic down, injected
    // timeout) would silently strand the handshake: the watch already fired
    // and nothing re-fires it. Retry on the backoff ladder.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleConnectRetry(guest);
    }
    return;
  }
  if (XenbusStateFromString(*state) != XenbusState::kInitialised ||
      channel->connected) {
    return;
  }
  const Status status = ConnectChannel(*channel);
  if (status.ok()) {
    channel->connect_backoff.Reset();
  } else if (status.code() == StatusCode::kUnavailable) {
    ScheduleConnectRetry(guest);
  } else {
    // Includes values the guest wrote that are not grant refs or ports:
    // the channel stays down until the frontend publishes again.
    XLOG(kWarning) << "[" << device_.back_tag << "] " << device_.noun
                   << " connect for dom" << guest.value()
                   << " failed permanently: " << status;
  }
}

// All or nothing: the channel counts as connected only once the Connected
// write has landed, and a failure at any step releases what this attempt
// mapped and bound.
Status XenbusBackend::ConnectChannel(Channel& channel) {
  const DomainId guest = channel.guest;
  const std::string front_dir = FrontendDir(guest, device_.type) + "/";
  std::array<std::uint32_t, 3> values = {};  // ring refs, then the port
  for (int i = 0; i <= device_.rings; ++i) {
    const char* key =
        i < device_.rings ? device_.ring_keys[i] : "event-channel";
    XOAR_ASSIGN_OR_RETURN(std::string text, xs_->Read(self_, front_dir + key));
    std::optional<std::uint32_t> value = ParseXenbusU32(text);
    if (!value.has_value()) {
      return InvalidArgumentError(StrFormat(
          "dom%u %s is not a 32-bit decimal", guest.value(), key));
    }
    values[i] = *value;
  }
  for (int i = 0; i < device_.rings; ++i) {
    channel.grefs[i] = GrantRef(values[i]);
    StatusOr<MappedPage> page = hv_->MapGrant(self_, guest, channel.grefs[i]);
    if (!page.ok()) {
      Unmap(channel, i);
      return page.status();
    }
    channel.rings[i] = page->data;
  }
  StatusOr<EvtchnPort> port = hv_->EvtchnBindInterdomain(
      self_, guest, EvtchnPort(values[device_.rings]));
  if (!port.ok()) {
    Unmap(channel, device_.rings);
    return port.status();
  }
  channel.port = *port;
  (void)hv_->EvtchnSetHandler(self_, channel.port,
                              [this, guest] { Kick(guest); });
  const Status advertised = xs_->Write(
      self_, StatePath(guest), XenbusStateString(XenbusState::kConnected));
  if (!advertised.ok()) {
    Unmap(channel, device_.rings);
    (void)hv_->EvtchnClose(self_, channel.port);
    return advertised;
  }
  channel.connected = true;
  m_connects_->Increment();
  obs_->tracer().Op(TraceCategory::kDriver, connect_op_, self_.value());
  XLOG(kDebug) << "[" << device_.back_tag << "] " << device_.noun
               << " connected for dom" << guest.value();
  // Drain anything the frontend pushed before we connected.
  Kick(guest);
  return Status::Ok();
}

void XenbusBackend::Kick(DomainId guest) {
  Channel* channel = Live(guest);
  if (channel == nullptr || channel->drain_scheduled) {
    return;
  }
  channel->drain_scheduled = true;
  sim_->ScheduleAfter(device_.kick_overhead,
                      [this, guest] { RunDrain(guest); });
}

void XenbusBackend::RunDrain(DomainId guest) {
  Channel* channel = Find(guest);
  if (channel == nullptr) {
    return;
  }
  channel->drain_scheduled = false;
  if (!channel->connected || !available_) {
    return;  // disconnected while the drain was in flight
  }
  if (!channel->drain(*channel)) {
    // The drain only reports it: Detach destroys the channel that holds it.
    XLOG(kWarning) << "[" << device_.back_tag << "] dom" << guest.value()
                   << " overflowed its " << device_.noun
                   << " ring's producer index; detaching it";
    (void)Detach(guest);
  }
}

void XenbusBackend::Unmap(Channel& channel, int mapped) {
  for (int i = 0; i < mapped; ++i) {
    (void)hv_->UnmapGrant(self_, channel.guest, channel.grefs[i]);
    channel.rings[i] = nullptr;
  }
}

void XenbusBackend::ScheduleConnectRetry(DomainId guest) {
  Channel* channel = Find(guest);
  if (channel == nullptr || channel->retry_pending) {
    return;
  }
  channel->retry_pending = true;
  const SimDuration delay = channel->connect_backoff.NextDelay();
  if (channel->connect_backoff.Exhausted()) {
    XLOG(kWarning) << "[" << device_.back_tag << "] dom" << guest.value()
                   << " connect retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, guest] {
    Channel* retrying = Find(guest);
    if (retrying == nullptr) {
      return;
    }
    retrying->retry_pending = false;
    if (!available_ || retrying->connected) {
      return;
    }
    OnFrontendStateChange(guest);
  });
}

void XenbusBackend::Disconnect(Channel& channel) {
  if (!channel.connected) {
    return;
  }
  channel.connected = false;
  Unmap(channel, device_.rings);
  (void)hv_->EvtchnClose(self_, channel.port);
}

Status XenbusBackend::Detach(DomainId guest) {
  Channel* channel = Find(guest);
  if (channel == nullptr) {
    return NotFoundError(StrFormat("dom%u has no %s on this backend",
                                   guest.value(), device_.noun));
  }
  Disconnect(*channel);
  (void)xs_->Unwatch(self_, FrontendDir(guest, device_.type) + "/state",
                     WatchToken(guest));
  channels_[guest.value()].reset();
  return Status::Ok();
}

void XenbusBackend::Suspend() {
  obs_->tracer().Op(TraceCategory::kDriver,
                    StrFormat("%s_suspend", device_.back_tag), self_.value());
  available_ = false;
  for (const auto& channel : channels_) {
    if (channel != nullptr) {
      Disconnect(*channel);
      (void)xs_->Write(self_, StatePath(channel->guest),
                       XenbusStateString(XenbusState::kClosing));
    }
  }
}

void XenbusBackend::Resume() {
  obs_->tracer().Op(TraceCategory::kDriver,
                    StrFormat("%s_resume", device_.back_tag), self_.value());
  available_ = true;
  // Re-advertise; frontends watching our state renegotiate from scratch. If
  // XenStore is itself down (concurrent Logic microreboot, injected
  // timeout), the write MUST be retried: this advertisement is the only
  // signal frontends get that the backend is back, so giving up would wedge
  // every device permanently. Unbounded retry at capped delay
  // (RESILIENCE.md).
  bool transient_failure = false;
  for (const auto& channel : channels_) {
    if (channel == nullptr) {
      continue;
    }
    const Status status = xs_->Write(self_, StatePath(channel->guest),
                                     XenbusStateString(XenbusState::kInitWait));
    if (status.code() == StatusCode::kUnavailable) {
      transient_failure = true;
    }
  }
  if (!transient_failure) {
    resume_backoff_.Reset();
    return;
  }
  if (resume_retry_pending_) {
    return;
  }
  resume_retry_pending_ = true;
  sim_->ScheduleAfter(resume_backoff_.NextDelay(), [this] {
    resume_retry_pending_ = false;
    if (available_) {
      Resume();
    }
  });
}

bool XenbusBackend::IsConnected(DomainId guest) const {
  // The hosting domain must actually be running: a crashed or rebooting
  // driver domain serves nothing, whatever the object state says.
  const Domain* self = hv_->domain(self_);
  if (self == nullptr || self->state() != DomainState::kRunning) {
    return false;
  }
  const Channel* channel = Find(guest);
  return channel != nullptr && channel->connected && available_;
}

XenbusBackend::Channel* XenbusBackend::Find(DomainId guest) const {
  return guest.value() < channels_.size() ? channels_[guest.value()].get()
                                          : nullptr;
}

XenbusBackend::Channel* XenbusBackend::Live(DomainId guest) {
  Channel* channel = Find(guest);
  return channel != nullptr && channel->connected && available_ ? channel
                                                                 : nullptr;
}

}  // namespace xoar
