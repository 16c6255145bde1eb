// XenBus negotiation protocol shared by the split drivers (§4.5.1).
//
// Frontends and backends never talk to each other directly to set up: the
// initial negotiation goes through XenStore. The frontend allocates shared
// ring pages and an event channel, publishes the grant references and port
// under its device directory, and advances its state; the backend watches
// for that state change, maps the grants, binds the channel, and advances its
// own state to Connected. Teardown and microreboot re-run the same protocol.
//
// The protocol is written once, here: XenbusBackend and XenbusFrontend own
// every XenStore node, watch, grant and event-channel operation of the
// handshake, and every retry ladder of DESIGN.md §5c. XenbusBackend also
// owns the backend data path: one drain event per kick, one drain of ring
// 0 behind one check of the guest-written indices, one batched
// notification, and one response push for completions. Each device class
// drives them with one XenbusDevice constant; BlkBack (blk.h) and NetBack
// (net.h) keep only their per-request check, BlkFront and NetFront their
// request shapes.
#ifndef XOAR_SRC_DRV_XENBUS_H_
#define XOAR_SRC_DRV_XENBUS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/backoff.h"
#include "src/base/ids.h"
#include "src/base/log.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace xoar {

enum class XenbusState : int {
  kUnknown = 0,
  kInitialising = 1,
  kInitWait = 2,
  kInitialised = 3,
  kConnected = 4,
  kClosing = 5,
  kClosed = 6,
};

inline std::string XenbusStateString(XenbusState s) {
  return StrFormat("%d", static_cast<int>(s));
}

inline XenbusState XenbusStateFromString(std::string_view s) {
  if (s.empty()) {
    return XenbusState::kUnknown;
  }
  const int v = s[0] - '0';
  if (v < 1 || v > 6) {
    return XenbusState::kUnknown;
  }
  return static_cast<XenbusState>(v);
}

// Parses a guest-written XenBus number (a grant reference or a port): the
// whole string must be an unsigned decimal that fits in 32 bits.
std::optional<std::uint32_t> ParseXenbusU32(std::string_view text);

// Device types carried over XenBus.
inline constexpr std::string_view kVbdType = "vbd";
inline constexpr std::string_view kVifType = "vif";
inline constexpr std::string_view kConsoleType = "console";

// /local/domain/<guest>/device/<type>/0
inline std::string FrontendDir(DomainId guest, std::string_view type) {
  return StrFormat("/local/domain/%u/device/%s/0", guest.value(),
                   std::string(type).c_str());
}

// /local/domain/<backend>/backend/<type>/<guest>/0
inline std::string BackendDir(DomainId backend, DomainId guest,
                              std::string_view type) {
  return StrFormat("/local/domain/%u/backend/%s/%u/0", backend.value(),
                   std::string(type).c_str(), guest.value());
}

// /local/domain/<backend>/backend/<type>  (the watch root for a backend)
inline std::string BackendRoot(DomainId backend, std::string_view type) {
  return StrFormat("/local/domain/%u/backend/%s", backend.value(),
                   std::string(type).c_str());
}

// /local/domain/<backend>/backend/<type>/<guest>: all the backend
// advertises for one guest.
inline std::string BackendGuestDir(DomainId backend, DomainId guest,
                                   std::string_view type) {
  return StrFormat("%s/%u", BackendRoot(backend, type).c_str(), guest.value());
}

inline std::string DomainDir(DomainId domain) {
  return StrFormat("/local/domain/%u", domain.value());
}

// One device class's XenBus constants.
struct XenbusDevice {
  const char* type;  // XenBus device type, e.g. "vbd"
  const char* noun;  // the device in status and log messages, e.g. "VBD"
  // Grant-reference keys in the frontend directory, in grant and map order.
  std::array<const char*, 2> ring_keys;
  int rings;               // how many of ring_keys are used
  const char* backend;     // metric prefix of the backend, e.g. "BlkBack"
  const char* frontend;    // metric prefix of the frontend, e.g. "BlkFront"
  const char* back_tag;    // watch token, trace op and log prefix, "blkback"
  const char* front_tag;   // watch token and log prefix, "blkfront"
  const char* io;          // what a request is, in failure messages
  SimDuration request_timeout;  // default per-attempt response deadline
  // Backend CPU time from a kick to its ring drain (demux, charged once
  // per drain however many requests it serves).
  SimDuration kick_overhead;
};

// Backend half of the protocol for one driver domain and device class:
// advertises each attached guest's device, connects it when the frontend
// reports Initialised, re-runs the handshake across Suspend/Resume, and
// drains ring 0 of every connected device.
//
// A kick (the port's notification, or a connect) schedules one drain after
// the device's kick_overhead; kicks that arrive while it is pending are
// absorbed by it. The drain first checks the guest-written ring indices: a
// producer that overflowed the ring gets its device detached, and nothing
// of it is served. Otherwise it hands every request to the driver's serve
// function, which returns the status to answer with now, or nullopt when
// the device answers later through Respond (or never). One notification
// covers every answer of a drain. A checked ring holds at most kEntries
// requests and nothing runs during a drain, so every drain empties it.
class XenbusBackend {
 public:
  // One guest's device. A driver derives from it for per-device state.
  struct Channel {
    Channel() = default;
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;
    virtual ~Channel() = default;
    DomainId guest;
    bool connected = false;  // set once the Connected state write landed
    std::array<GrantRef, 2> grefs;
    std::array<std::byte*, 2> rings = {};  // mapped ring pages
    EvtchnPort port;                       // backend end of the channel
    // A drain event is in flight; it will serve what further kicks signal.
    bool drain_scheduled = false;
    // Serves ring 0 (Attach builds it); false when the producer overflowed.
    std::function<bool(Channel&)> drain;
    // Connect retry state: a transiently failed connect (XenStore down
    // mid-handshake, injected grant-map failure) is retried on this ladder
    // because nothing else re-fires the frontend-state watch.
    ExponentialBackoff connect_backoff;
    bool retry_pending = false;
  };

  XenbusBackend(const XenbusDevice& device, Hypervisor* hv,
                XenStoreService* xs, DomainId self);
  // Watches and timers hold `this`.
  XenbusBackend(const XenbusBackend&) = delete;
  XenbusBackend& operator=(const XenbusBackend&) = delete;

  // Creates the backend root in XenStore.
  Status Initialize();
  // Takes `channel` for `guest`, advertises the backend half and watches the
  // frontend state. Each drain of the channel's ring 0, a Ring, calls
  // `serve(channel, request)` once per request, in ring order; its result is
  // a std::optional<std::int8_t> response status (see the class comment).
  template <typename Ring, typename Serve>
  Status Attach(DomainId guest, std::unique_ptr<Channel> channel,
                Serve serve) {
    channel->drain = [this, serve](Channel& live) {
      return Drain<Ring>(live, serve);
    };
    return Adopt(guest, std::move(channel));
  }
  // Answers request `id` of `guest` on ring 0 and notifies, unless the
  // channel went down since the request was served: the frontend then
  // retransmits after it reconnects.
  template <typename Ring>
  void Respond(DomainId guest, std::uint64_t id, std::int8_t status);
  // Disconnects, drops the frontend-state watch, removes the guest's
  // directory that Attach wrote and forgets the guest. The XenStore steps
  // are retried while XenStore is down.
  Status Detach(DomainId guest);
  // Microreboot hooks: Suspend drops every mapping and port; Resume
  // re-advertises so the frontends renegotiate.
  void Suspend();
  void Resume();

  // Connected, backend available and its domain running.
  bool IsConnected(DomainId guest) const;
  // The guest's channel while it is connected and the backend available.
  Channel* Live(DomainId guest);

  DomainId self() const { return self_; }
  bool available() const { return available_; }
  Hypervisor* hv() const { return hv_; }

 private:
  Channel* Find(DomainId guest) const;
  Status Adopt(DomainId guest, std::unique_ptr<Channel> channel);
  void Kick(DomainId guest);
  void RunDrain(DomainId guest);
  template <typename Ring, typename Serve>
  bool Drain(Channel& channel, const Serve& serve);
  void OnFrontendStateChange(DomainId guest);
  Status ConnectChannel(Channel& channel);
  void ScheduleConnectRetry(DomainId guest);
  void Disconnect(Channel& channel);
  void Unmap(Channel& channel, int mapped);
  std::string StatePath(DomainId guest) const;
  std::string WatchToken(DomainId guest) const;

  const XenbusDevice& device_;
  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  Obs* obs_;
  DomainId self_;
  bool available_ = false;
  // Resume() must eventually get its InitWait re-advertisement into
  // XenStore or no frontend ever renegotiates; retried unbounded at capped
  // delay when XenStore itself is down (RESILIENCE.md).
  ExponentialBackoff resume_backoff_;
  bool resume_retry_pending_ = false;
  // Indexed by guest id (Find never grows it); Attach fills a slot, Detach
  // empties it.
  std::vector<std::unique_ptr<Channel>> channels_;
  const std::string connect_op_;  // trace op "<back_tag>_<type>_connect"
  Counter* m_connects_;           // <backend>.<type>.connects
};

// Ring response status for a retryable backend-side fault (an injected
// EIO): the frontend retries the request with backoff instead of failing it.
constexpr std::int8_t kRingStatusTransient = -2;

// --- XenbusBackend data path -------------------------------------------------

template <typename Ring, typename Serve>
bool XenbusBackend::Drain(Channel& channel, const Serve& serve) {
  Ring ring = Ring::Attach(channel.rings[0]);
  if (ring.RequestsOverflowed()) {
    return false;
  }
  bool answered = false;
  while (std::optional<typename Ring::Request> request = ring.PopRequest()) {
    if (const std::optional<std::int8_t> status = serve(channel, *request)) {
      ring.PushResponse(typename Ring::Response{request->id, *status});
      answered = true;
    }
  }
  if (answered) {
    (void)hv_->EvtchnSend(self_, channel.port);
  }
  return true;
}

template <typename Ring>
void XenbusBackend::Respond(DomainId guest, std::uint64_t id,
                            std::int8_t status) {
  Channel* channel = Live(guest);
  if (channel == nullptr) {
    return;
  }
  Ring ring = Ring::Attach(channel->rings[0]);
  if (ring.PushResponse(typename Ring::Response{id, status})) {
    (void)hv_->EvtchnSend(self_, channel->port);
  }
}

// Frontend half of the protocol for one guest device of class kDevice whose
// rings are Ring: allocates the ring pages, grants them and an unbound port
// to the backend, publishes them, follows the backend's state through its
// microreboots, and owns the request queue of ring 0. Every request on the
// ring carries a simulated-time response deadline; a timed-out or
// transiently failed request is retried with bounded exponential backoff,
// and exhaustion surfaces UNAVAILABLE to the caller. XenStore reads and
// writes of the handshake are retried the same way, unbounded, so an
// injected XenStore timeout delays reconnection instead of wedging it.
template <typename Ring, const XenbusDevice& kDevice>
class XenbusFrontend {
 public:
  using Request = typename Ring::Request;
  using Done = std::function<void(Status)>;

  // Retry/backoff tuning (RESILIENCE.md "Tuning knobs").
  struct RetryConfig {
    BackoffPolicy backoff;
    SimDuration request_timeout = kDevice.request_timeout;
  };

  XenbusFrontend(Hypervisor* hv, XenStoreService* xs, DomainId self,
                 DomainId backend);
  // Watches and timers hold `this`.
  XenbusFrontend(const XenbusFrontend&) = delete;
  XenbusFrontend& operator=(const XenbusFrontend&) = delete;
  ~XenbusFrontend();

  // Runs the frontend side of the handshake and watches the backend state,
  // so a microrebooted backend triggers renegotiation. `on_event` handles
  // the port's notifications for as long as this frontend lives.
  template <typename OnEvent>
  Status Connect(OnEvent on_event);

  // Queues `request` under a fresh id; `done` (may be empty) gets the
  // outcome. Requests queue while disconnected and are (re)transmitted
  // after every reconnection.
  void Enqueue(Request request, Done done);
  // Moves queued requests onto ring 0 while connected.
  void Pump();
  // Consumes ring 0's responses.
  void CompleteResponses();

  bool connected() const { return connected_; }
  DomainId backend() const { return backend_; }
  std::byte* ring_page(int ring) const { return pages_[ring]; }

  void set_retry_config(const RetryConfig& config);
  const RetryConfig& retry_config() const { return retry_; }

  std::uint64_t completed() const { return completed_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::size_t outstanding() const { return outstanding_.size(); }
  std::uint64_t retry_attempts() const { return retry_attempts_; }
  std::uint64_t retry_recovered() const { return retry_recovered_; }
  std::uint64_t retry_exhausted() const { return retry_exhausted_; }

 private:
  struct Pending {
    Request request;
    Done done;
    int attempts = 0;  // backoff retries so far (reconnects not counted)
    EventId timeout_event = EventId::Invalid();
  };

  void Republish();
  Status DoRepublish();
  void OnBackendStateChange();
  void ScheduleXsRetry(bool republish);
  void OnRequestTimeout(std::uint64_t id);
  void Retry(Pending io);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  DomainId backend_;
  bool connected_ = false;
  bool handshake_started_ = false;
  bool awaiting_connect_ = false;
  std::array<Pfn, 2> pfns_;
  std::array<std::byte*, 2> pages_ = {};  // reused across reconnects
  std::array<GrantRef, 2> grefs_;
  EvtchnPort port_;
  std::function<void()> on_event_;  // the port's handler
  std::uint64_t next_id_ = 1;
  RetryConfig retry_;
  ExponentialBackoff xs_backoff_;
  bool xs_retry_pending_ = false;
  bool xs_retry_republish_ = false;
  std::deque<Pending> queue_;                  // not yet on the ring
  std::map<std::uint64_t, Pending> outstanding_;  // on the ring, unanswered
  std::uint64_t completed_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t retry_recovered_ = 0;
  std::uint64_t retry_exhausted_ = 0;
  Counter* m_retry_attempts_;   // <frontend>.retry.attempts
  Counter* m_retry_recovered_;  // <frontend>.retry.recovered
  Counter* m_retry_exhausted_;  // <frontend>.retry.exhausted
  Histogram* m_backoff_ms_;     // <frontend>.retry.backoff_ms
  // Frontends die with their guest while the simulation keeps running;
  // every scheduled callback checks this guard so late timers, watch
  // events and notifications can't touch a destroyed frontend.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// --- XenbusFrontend ----------------------------------------------------------

template <typename Ring, const XenbusDevice& kDevice>
XenbusFrontend<Ring, kDevice>::XenbusFrontend(Hypervisor* hv,
                                              XenStoreService* xs,
                                              DomainId self, DomainId backend)
    : hv_(hv),
      xs_(xs),
      sim_(hv->sim()),
      self_(self),
      backend_(backend),
      xs_backoff_(retry_.backoff),
      m_retry_attempts_(hv->obs()->metrics().GetCounter(
          std::string(kDevice.frontend) + ".retry.attempts")),
      m_retry_recovered_(hv->obs()->metrics().GetCounter(
          std::string(kDevice.frontend) + ".retry.recovered")),
      m_retry_exhausted_(hv->obs()->metrics().GetCounter(
          std::string(kDevice.frontend) + ".retry.exhausted")),
      m_backoff_ms_(hv->obs()->metrics().GetHistogram(
          std::string(kDevice.frontend) + ".retry.backoff_ms",
          Histogram::ExponentialBounds(1.0, 2.0, 10))) {}

template <typename Ring, const XenbusDevice& kDevice>
XenbusFrontend<Ring, kDevice>::~XenbusFrontend() {
  // The guest died; scheduled timers and watch deliveries may still be in
  // the simulator's queue. Flip the guard so they no-op.
  *alive_ = false;
  for (auto& [id, io] : outstanding_) {
    if (io.timeout_event.valid()) {
      (void)sim_->Cancel(io.timeout_event);
    }
  }
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::set_retry_config(
    const RetryConfig& config) {
  retry_ = config;
  xs_backoff_ = ExponentialBackoff(retry_.backoff);
}

template <typename Ring, const XenbusDevice& kDevice>
template <typename OnEvent>
Status XenbusFrontend<Ring, kDevice>::Connect(OnEvent on_event) {
  if (handshake_started_) {
    return AlreadyExistsError("frontend handshake already started");
  }
  handshake_started_ = true;
  for (int i = 0; i < kDevice.rings; ++i) {
    XOAR_ASSIGN_OR_RETURN(pfns_[i], hv_->memory().AllocatePages(self_, 1));
    pages_[i] = hv_->memory().PageData(pfns_[i]);
  }
  on_event_ = [alive = alive_, on_event] {
    if (*alive) {
      on_event();
    }
  };
  Republish();
  // Reconnect when a microrebooted backend re-advertises, mark connected
  // when it reports Connected. Deliveries are asynchronous, so guard
  // against this frontend dying first.
  return xs_->Watch(self_, BackendDir(backend_, self_, kDevice.type) + "/state",
                    kDevice.front_tag,
                    [this, alive = alive_](const XsWatchEvent&) {
                      if (*alive) {
                        OnBackendStateChange();
                      }
                    });
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::Republish() {
  const Status status = DoRepublish();
  if (status.ok()) {
    xs_backoff_.Reset();
    return;
  }
  if (status.code() == StatusCode::kUnavailable) {
    // XenStore (or the grant/evtchn path) transiently down mid-handshake.
    // Nothing re-fires this publish, so retry it ourselves.
    ScheduleXsRetry(/*republish=*/true);
    return;
  }
  XLOG(kWarning) << "[" << kDevice.front_tag
                 << "] republish failed permanently: " << status;
}

template <typename Ring, const XenbusDevice& kDevice>
Status XenbusFrontend<Ring, kDevice>::DoRepublish() {
  // Retire the previous generation's grants (ignore failure: the backend
  // may still hold a dangling mapping if it crashed rather than suspended).
  for (GrantRef& gref : grefs_) {
    if (gref.valid()) {
      (void)hv_->EndGrantAccess(self_, gref);
      gref = GrantRef::Invalid();
    }
  }
  awaiting_connect_ = true;
  // Fresh grants + event channel for this connection generation.
  for (int i = 0; i < kDevice.rings; ++i) {
    XOAR_ASSIGN_OR_RETURN(grefs_[i], hv_->GrantAccess(self_, backend_, pfns_[i],
                                                      /*writable=*/true));
  }
  XOAR_ASSIGN_OR_RETURN(port_, hv_->EvtchnAllocUnbound(self_, backend_));
  for (int i = 0; i < kDevice.rings; ++i) {
    Ring::Create(pages_[i]);  // reset indices for the new generation
  }
  (void)hv_->EvtchnSetHandler(self_, port_, on_event_);

  // Publish, then give the backend read access to every node it reads.
  const std::string dir = FrontendDir(self_, kDevice.type) + "/";
  std::vector<std::pair<const char*, std::uint32_t>> nodes = {
      {"backend-id", backend_.value()}};
  for (int i = 0; i < kDevice.rings; ++i) {
    nodes.emplace_back(kDevice.ring_keys[i], grefs_[i].value());
  }
  nodes.emplace_back("event-channel", port_.value());
  for (const auto& [key, value] : nodes) {
    XOAR_RETURN_IF_ERROR(xs_->Write(self_, dir + key, StrFormat("%u", value)));
  }
  XsNodePerms perms;
  perms.owner = self_;
  perms.acl[backend_] = XsPerm::kRead;
  for (const auto& node : nodes) {
    XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, dir + node.first, perms));
  }
  XOAR_RETURN_IF_ERROR(xs_->Write(
      self_, dir + "state", XenbusStateString(XenbusState::kInitialised)));
  return xs_->SetPerms(self_, dir + "state", perms);
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::ScheduleXsRetry(bool republish) {
  if (republish) {
    xs_retry_republish_ = true;
  }
  if (xs_retry_pending_) {
    return;
  }
  xs_retry_pending_ = true;
  const SimDuration delay = xs_backoff_.NextDelay();
  if (xs_backoff_.Exhausted()) {
    // Handshake retries must not give up: the backend's next advertisement
    // may never be readable if we stop looking (RESILIENCE.md). Stay at the
    // capped delay instead.
    XLOG(kWarning) << "[" << kDevice.front_tag
                   << "] XenStore retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    xs_retry_pending_ = false;
    const bool republish_now = xs_retry_republish_;
    xs_retry_republish_ = false;
    if (republish_now) {
      Republish();
    } else {
      OnBackendStateChange();
    }
  });
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::OnBackendStateChange() {
  StatusOr<std::string> state =
      xs_->Read(self_, BackendDir(backend_, self_, kDevice.type) + "/state");
  if (!state.ok()) {
    // The watch told us the backend changed state but we could not read
    // which; dropping the event would desynchronise the handshake. Re-read
    // after backoff.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleXsRetry(/*republish=*/false);
    }
    return;
  }
  xs_backoff_.Reset();
  switch (XenbusStateFromString(*state)) {
    case XenbusState::kConnected: {
      if (connected_) {
        break;
      }
      connected_ = true;
      awaiting_connect_ = false;
      // Retransmit everything that was in flight when the backend went
      // down, ahead of the queue. Response deadlines are re-armed when the
      // requests go back on the ring.
      for (auto& [id, io] : outstanding_) {
        if (io.timeout_event.valid()) {
          (void)sim_->Cancel(io.timeout_event);
          io.timeout_event = EventId::Invalid();
        }
      }
      for (auto it = outstanding_.rbegin(); it != outstanding_.rend(); ++it) {
        queue_.push_front(std::move(it->second));
      }
      retransmits_ += outstanding_.size();
      outstanding_.clear();
      Pump();
      break;
    }
    case XenbusState::kClosing:
      connected_ = false;
      break;
    case XenbusState::kInitWait:
      // Backend (re-)advertised. Republish unless our current generation is
      // already awaiting its Connected ack — the immediate watch fire at
      // registration would otherwise double-publish.
      if (connected_ || !awaiting_connect_) {
        connected_ = false;
        Republish();
      }
      break;
    default:
      break;
  }
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::Enqueue(Request request, Done done) {
  request.id = next_id_++;
  queue_.push_back(Pending{request, std::move(done)});
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::Pump() {
  if (!connected_) {
    return;
  }
  Ring ring = Ring::Attach(pages_[0]);
  bool pushed = false;
  while (!queue_.empty() && !ring.FullRequests()) {
    Pending io = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t id = io.request.id;
    ring.PushRequest(io.request);
    // Arm the per-attempt response deadline. If the backend never answers
    // (dropped notification, lost completion), OnRequestTimeout retries.
    io.timeout_event = sim_->ScheduleAfter(
        retry_.request_timeout, [this, alive = alive_, id] {
          if (*alive) {
            OnRequestTimeout(id);
          }
        });
    outstanding_.emplace(id, std::move(io));
    pushed = true;
  }
  if (pushed) {
    (void)hv_->EvtchnSend(self_, port_);
  }
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::CompleteResponses() {
  Ring ring = Ring::Attach(pages_[0]);
  while (auto rsp = ring.PopResponse()) {
    auto it = outstanding_.find(rsp->id);
    if (it == outstanding_.end()) {
      continue;  // stale response from a previous connection generation
    }
    Pending io = std::move(it->second);
    outstanding_.erase(it);
    if (io.timeout_event.valid()) {
      (void)sim_->Cancel(io.timeout_event);
      io.timeout_event = EventId::Invalid();
    }
    if (rsp->status == kRingStatusTransient) {
      Retry(std::move(io));
      continue;
    }
    ++completed_;
    if (rsp->status == 0 && io.attempts > 0) {
      ++retry_recovered_;
      m_retry_recovered_->Increment();
    }
    if (io.done) {
      io.done(rsp->status == 0 ? Status::Ok()
                               : InternalError(StrFormat(
                                     "%s failed at backend", kDevice.io)));
    }
  }
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::OnRequestTimeout(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    return;  // response arrived just before the deadline fired
  }
  if (!connected_) {
    // The backend is down; the reconnect path owns these requests (it will
    // retransmit them and arm fresh deadlines). A timeout here is not an
    // error signal.
    it->second.timeout_event = EventId::Invalid();
    return;
  }
  Pending io = std::move(it->second);
  outstanding_.erase(it);
  io.timeout_event = EventId::Invalid();
  Retry(std::move(io));
}

template <typename Ring, const XenbusDevice& kDevice>
void XenbusFrontend<Ring, kDevice>::Retry(Pending io) {
  ++io.attempts;
  ++retry_attempts_;
  m_retry_attempts_->Increment();
  if (io.attempts > retry_.backoff.max_attempts) {
    ++retry_exhausted_;
    m_retry_exhausted_->Increment();
    XLOG(kWarning) << "[" << kDevice.front_tag << "] request "
                   << io.request.id << " exhausted retries";
    if (io.done) {
      io.done(UnavailableError(StrFormat("%s failed after %d retries",
                                         kDevice.io, io.attempts - 1)));
    }
    return;
  }
  const SimDuration delay = retry_.backoff.DelayForAttempt(io.attempts - 1);
  m_backoff_ms_->Observe(ToMilliseconds(delay));
  sim_->ScheduleAfter(delay, [this, alive = alive_,
                              io = std::move(io)]() mutable {
    if (!*alive) {
      return;
    }
    queue_.push_front(std::move(io));
    Pump();
  });
}

}  // namespace xoar

#endif  // XOAR_SRC_DRV_XENBUS_H_
