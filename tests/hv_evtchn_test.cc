#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/hv/event_channel.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {
namespace {

class EvtchnTest : public ::testing::Test {
 protected:
  Simulator sim_;
  Obs obs_;
  EventChannelManager evtchn_{&sim_, &obs_};
  DomainId a_{1};
  DomainId b_{2};
  DomainId c_{3};
};

TEST_F(EvtchnTest, AllocAndBindConnectsBothEnds) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(evtchn_.IsConnected(a_, *unbound));
  EXPECT_TRUE(evtchn_.IsConnected(b_, *bound));
}

TEST_F(EvtchnTest, BindByWrongDomainDenied) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  EXPECT_EQ(evtchn_.BindInterdomain(c_, a_, *unbound).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(EvtchnTest, BindNonexistentPortFails) {
  EXPECT_EQ(evtchn_.BindInterdomain(b_, a_, EvtchnPort(99)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(EvtchnTest, DoubleBindFails) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(evtchn_.BindInterdomain(b_, a_, *unbound).ok());
  EXPECT_EQ(evtchn_.BindInterdomain(b_, a_, *unbound).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EvtchnTest, SendDeliversToPeerHandlerAsync) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  int delivered = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *unbound, [&] { ++delivered; }).ok());
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  EXPECT_EQ(delivered, 0);  // not synchronous
  sim_.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(evtchn_.sends(), 1u);
  EXPECT_EQ(evtchn_.deliveries(), 1u);
}

TEST_F(EvtchnTest, SendOnUnboundFails) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  EXPECT_EQ(evtchn_.Send(a_, *unbound).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(EvtchnTest, CloseBreaksPeer) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  ASSERT_TRUE(evtchn_.Close(a_, *unbound).ok());
  // The surviving end observes UNAVAILABLE — the signal frontends use to
  // begin renegotiation after a backend microreboot.
  EXPECT_EQ(evtchn_.Send(b_, *bound).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(evtchn_.IsConnected(b_, *bound));
}

TEST_F(EvtchnTest, CloseAllBreaksEverything) {
  auto u1 = evtchn_.AllocUnbound(a_, b_);
  auto b1 = evtchn_.BindInterdomain(b_, a_, *u1);
  auto u2 = evtchn_.AllocUnbound(a_, c_);
  auto b2 = evtchn_.BindInterdomain(c_, a_, *u2);
  EXPECT_EQ(evtchn_.CloseAll(a_), 2);
  EXPECT_EQ(evtchn_.Send(b_, *b1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(evtchn_.Send(c_, *b2).code(), StatusCode::kUnavailable);
}

TEST_F(EvtchnTest, DeliveryAfterCloseIsDropped) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  auto bound = evtchn_.BindInterdomain(b_, a_, *unbound);
  int delivered = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *unbound, [&] { ++delivered; }).ok());
  ASSERT_TRUE(evtchn_.Send(b_, *bound).ok());
  ASSERT_TRUE(evtchn_.Close(a_, *unbound).ok());  // close before delivery
  sim_.Run();
  EXPECT_EQ(delivered, 0);
}

TEST_F(EvtchnTest, VirqBindAndRaise) {
  auto port = evtchn_.BindVirq(a_, Virq::kConsole);
  ASSERT_TRUE(port.ok());
  int raised = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *port, [&] { ++raised; }).ok());
  ASSERT_TRUE(evtchn_.RaiseVirq(a_, Virq::kConsole).ok());
  sim_.Run();
  EXPECT_EQ(raised, 1);
}

TEST_F(EvtchnTest, DoubleVirqBindFails) {
  ASSERT_TRUE(evtchn_.BindVirq(a_, Virq::kConsole).ok());
  EXPECT_EQ(evtchn_.BindVirq(a_, Virq::kConsole).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(evtchn_.BindVirq(a_, Virq::kTimer).ok());  // different virq ok
}

TEST_F(EvtchnTest, RaiseUnboundVirqFails) {
  EXPECT_EQ(evtchn_.RaiseVirq(a_, Virq::kDebug).code(), StatusCode::kNotFound);
}

TEST_F(EvtchnTest, PortsAreDistinctPerDomain) {
  auto p1 = evtchn_.AllocUnbound(a_, b_);
  auto p2 = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_NE(p1->value(), p2->value());
}

TEST_F(EvtchnTest, HandlerIsCopiedBeforeAsyncDelivery) {
  // A VIRQ raised and then unbound (via CloseAll) must not crash delivery.
  auto port = evtchn_.BindVirq(a_, Virq::kTimer);
  int raised = 0;
  ASSERT_TRUE(evtchn_.SetHandler(a_, *port, [&] { ++raised; }).ok());
  ASSERT_TRUE(evtchn_.RaiseVirq(a_, Virq::kTimer).ok());
  evtchn_.CloseAll(a_);
  sim_.Run();  // must not crash; delivery may or may not land
  SUCCEED();
}

// --- Numbers nobody allocated ---------------------------------------------

// Ports and domain ids reach the manager from guest-written XenStore nodes
// (the backend's `event-channel` read). A lookup of a number nobody
// allocated must answer NOT_FOUND; a table that grew to the guest's value
// would try to allocate 2^32 slots.
TEST_F(EvtchnTest, UnallocatedNumbersAreNotFound) {
  auto unbound = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(unbound.ok());
  const EvtchnPort huge(1u << 30);
  const DomainId far(1u << 31);
  EXPECT_EQ(evtchn_.Send(a_, huge).code(), StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.Send(far, *unbound).code(), StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.Send(DomainId::Invalid(), EvtchnPort::Invalid()).code(),
            StatusCode::kNotFound);
  for (EvtchnPort port : {EvtchnPort(4294967294u), EvtchnPort::Invalid()}) {
    EXPECT_EQ(evtchn_.BindInterdomain(b_, a_, port).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(evtchn_.BindInterdomain(b_, far, EvtchnPort(0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.SetHandler(a_, huge, [] {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.Close(far, huge).code(), StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.RaiseVirq(far, Virq::kTimer).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(evtchn_.CloseAll(far), 0);
  EXPECT_FALSE(evtchn_.IsConnected(DomainId::Invalid(), huge));
  // The one real channel is untouched.
  ASSERT_TRUE(evtchn_.BindInterdomain(b_, a_, *unbound).ok());
  EXPECT_TRUE(evtchn_.IsConnected(a_, *unbound));
}

TEST_F(EvtchnTest, PortsAreNeverReusedAfterCloseAll) {
  auto first = evtchn_.AllocUnbound(a_, b_);
  auto second = evtchn_.BindVirq(a_, Virq::kTimer);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(evtchn_.CloseAll(a_), 2);
  auto third = evtchn_.AllocUnbound(a_, b_);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->value(), second->value());
  EXPECT_EQ(evtchn_.Send(a_, *first).code(), StatusCode::kNotFound);
  // The VIRQ binding died with its port and can be made again.
  EXPECT_EQ(evtchn_.RaiseVirq(a_, Virq::kTimer).code(), StatusCode::kNotFound);
  EXPECT_TRUE(evtchn_.BindVirq(a_, Virq::kTimer).ok());
}

// --- Differential test against a reference model ---------------------------

// What a handler does when it runs. Every handler logs its delivery; a
// re-entrant one then opens ports on its own domain (one it allocates, one
// it binds, each against a domain id no one has used yet, so both the
// domain table and its own row grow while it runs), closes another port of
// its own domain, and closes every port of a peer domain.
struct HandlerSpec {
  DomainId domain;
  EvtchnPort port;
  bool reentrant = false;
  EvtchnPort close_port;
  DomainId peer;
};

using Log = std::vector<std::string>;

std::string Outcome(const Status& status) {
  return std::string(StatusCodeName(status.code()));
}

std::string Outcome(const StatusOr<EvtchnPort>& port) {
  return port.ok() ? StrFormat("port %u", port->value())
                   : Outcome(port.status());
}

// Runs `spec` against `impl` (the manager or the model); `fresh` hands out
// the next unused domain id of that side.
template <typename Impl>
void RunHandler(Impl& impl, const HandlerSpec& spec, std::uint32_t& fresh,
                Log& log) {
  log.push_back(StrFormat("deliver dom%u port %u", spec.domain.value(),
                          spec.port.value()));
  if (!spec.reentrant) {
    return;
  }
  const DomainId other(fresh++);
  log.push_back("alloc " + Outcome(impl.AllocUnbound(spec.domain, other)));
  StatusOr<EvtchnPort> offered = impl.AllocUnbound(other, spec.domain);
  if (offered.ok()) {
    log.push_back("bind " +
                  Outcome(impl.BindInterdomain(spec.domain, other, *offered)));
  }
  log.push_back("close " + Outcome(impl.Close(spec.domain, spec.close_port)));
  log.push_back(StrFormat("close-all %d", impl.CloseAll(spec.peer)));
}

// A naive reference for the manager: one host-wide map keyed (domain,
// port), plus next-port and VIRQ maps, with deliveries in a FIFO that Run()
// drains. Handlers are HandlerSpecs.
class ReferenceEvtchn {
 public:
  ReferenceEvtchn(Log* log, std::uint32_t first_fresh)
      : log_(log), fresh_(first_fresh) {}

  StatusOr<EvtchnPort> AllocUnbound(DomainId owner, DomainId remote) {
    if (!owner.valid() || !remote.valid()) {
      return InvalidArgumentError("invalid domain");
    }
    const EvtchnPort port = NextPort(owner);
    Chan& chan = channels_[At(owner, port)];
    chan.state = State::kUnbound;
    chan.remote = remote;
    return port;
  }

  StatusOr<EvtchnPort> BindInterdomain(DomainId caller, DomainId remote,
                                       EvtchnPort remote_port) {
    auto it = channels_.find(At(remote, remote_port));
    if (it == channels_.end()) {
      return NotFoundError("no port");
    }
    if (it->second.state != State::kUnbound) {
      return FailedPreconditionError("not unbound");
    }
    if (it->second.remote != caller) {
      return PermissionDeniedError("wrong binder");
    }
    const EvtchnPort local = NextPort(caller);
    Chan& chan = channels_[At(caller, local)];
    chan.state = State::kConnected;
    chan.remote = remote;
    chan.remote_port = remote_port;
    Chan& peer = channels_[At(remote, remote_port)];
    peer.state = State::kConnected;
    peer.remote = caller;
    peer.remote_port = local;
    return local;
  }

  StatusOr<EvtchnPort> BindVirq(DomainId domain, Virq virq) {
    const auto bound = std::make_pair(domain.value(), virq);
    if (virq_ports_.count(bound) > 0) {
      return AlreadyExistsError("bound");
    }
    const EvtchnPort port = NextPort(domain);
    Chan& chan = channels_[At(domain, port)];
    chan.state = State::kVirq;
    chan.virq = virq;
    virq_ports_[bound] = port;
    return port;
  }

  Status SetHandler(DomainId domain, EvtchnPort port, HandlerSpec spec) {
    auto it = channels_.find(At(domain, port));
    if (it == channels_.end()) {
      return NotFoundError("no port");
    }
    it->second.handler = spec;
    return Status::Ok();
  }

  Status Send(DomainId caller, EvtchnPort port) {
    auto it = channels_.find(At(caller, port));
    if (it == channels_.end()) {
      return NotFoundError("no port");
    }
    if (it->second.state == State::kBroken) {
      return UnavailableError("broken");
    }
    if (it->second.state != State::kConnected) {
      return FailedPreconditionError("not connected");
    }
    ++sends_;
    pending_.push_back({At(it->second.remote, it->second.remote_port), {}});
    return Status::Ok();
  }

  Status RaiseVirq(DomainId domain, Virq virq) {
    auto bound = virq_ports_.find(std::make_pair(domain.value(), virq));
    if (bound == virq_ports_.end()) {
      return NotFoundError("unbound virq");
    }
    auto it = channels_.find(At(domain, bound->second));
    if (it != channels_.end() && it->second.handler.has_value()) {
      pending_.push_back({{}, it->second.handler});  // the handler is copied
      ++deliveries_;
    }
    return Status::Ok();
  }

  Status Close(DomainId domain, EvtchnPort port) {
    auto it = channels_.find(At(domain, port));
    if (it == channels_.end()) {
      return NotFoundError("no port");
    }
    Release(it);
    return Status::Ok();
  }

  int CloseAll(DomainId domain) {
    int closed = 0;
    auto it = channels_.lower_bound(At(domain, EvtchnPort(0)));
    while (it != channels_.end() && it->first.first == domain.value()) {
      it = Release(it);
      ++closed;
    }
    return closed;
  }

  bool IsConnected(DomainId domain, EvtchnPort port) const {
    auto it = channels_.find(At(domain, port));
    return it != channels_.end() && it->second.state == State::kConnected;
  }

  // Delivers everything sent or raised so far, in order, the way the
  // simulator runs same-instant events.
  void Run() {
    while (!pending_.empty()) {
      const Delivery next = pending_.front();
      pending_.pop_front();
      std::optional<HandlerSpec> handler = next.virq_handler;
      if (!handler.has_value()) {
        auto it = channels_.find(next.target);
        if (it == channels_.end() || !it->second.handler.has_value() ||
            it->second.state != State::kConnected) {
          continue;
        }
        ++deliveries_;
        handler = it->second.handler;
      }
      RunHandler(*this, *handler, fresh_, *log_);
    }
  }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t deliveries() const { return deliveries_; }

 private:
  enum class State { kUnbound, kConnected, kVirq, kBroken };
  struct Chan {
    State state = State::kUnbound;
    DomainId remote;
    EvtchnPort remote_port;
    Virq virq = Virq::kCount;
    std::optional<HandlerSpec> handler;
  };
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  struct Delivery {
    Key target;                               // an interdomain delivery
    std::optional<HandlerSpec> virq_handler;  // a raised VIRQ's handler
  };

  static Key At(DomainId domain, EvtchnPort port) {
    return {domain.value(), port.value()};
  }
  EvtchnPort NextPort(DomainId domain) {
    return EvtchnPort(next_port_[domain.value()]++);
  }
  std::map<Key, Chan>::iterator Release(std::map<Key, Chan>::iterator it) {
    if (it->second.state == State::kConnected) {
      auto peer = channels_.find(At(it->second.remote, it->second.remote_port));
      if (peer != channels_.end()) {
        peer->second.state = State::kBroken;
      }
    } else if (it->second.state == State::kVirq) {
      virq_ports_.erase(std::make_pair(it->first.first, it->second.virq));
    }
    return channels_.erase(it);
  }

  Log* log_;
  std::uint32_t fresh_;
  std::map<Key, Chan> channels_;
  std::map<std::pair<std::uint32_t, Virq>, EvtchnPort> virq_ports_;
  std::map<std::uint32_t, std::uint32_t> next_port_;
  std::deque<Delivery> pending_;
  std::uint64_t sends_ = 0;
  std::uint64_t deliveries_ = 0;
};

void ExpectSameLog(const Log& real, const Log& model) {
  for (std::size_t i = 0; i < std::min(real.size(), model.size()); ++i) {
    if (real[i] != model[i]) {
      ADD_FAILURE() << "first divergence at entry " << i << ": manager \""
                    << real[i] << "\", model \"" << model[i] << "\"";
      return;
    }
  }
  EXPECT_EQ(real.size(), model.size());
}

class EvtchnModelTest : public ::testing::TestWithParam<std::uint64_t> {};

// Seeded op sequences against the manager and the model: every status, port
// number, connection, counter and delivery must agree, including what
// re-entrant handlers do to the tables while they run.
TEST_P(EvtchnModelTest, AgreesWithReferenceModel) {
  constexpr std::uint32_t kDomains = 6;        // the op sequence uses 1..6
  constexpr std::uint32_t kFirstFresh = 100;   // handlers' new domains
  Simulator sim;
  Obs obs;
  EventChannelManager real(&sim, &obs);
  Log real_log;
  Log model_log;
  ReferenceEvtchn model(&model_log, kFirstFresh);
  std::uint32_t real_fresh = kFirstFresh;
  Rng rng(GetParam());

  std::vector<std::pair<DomainId, EvtchnPort>> known;  // every port handed out
  struct Offer {
    DomainId owner;
    EvtchnPort port;
    DomainId binder;
  };
  std::vector<Offer> offers;  // every AllocUnbound that succeeded
  std::uint32_t max_port = 0;
  auto note = [&](DomainId domain, const StatusOr<EvtchnPort>& port) {
    if (port.ok()) {
      known.emplace_back(domain, *port);
      max_port = std::max(max_port, port->value());
    }
  };
  auto domain = [&] { return DomainId(1 + rng.NextBelow(kDomains)); };
  // Mostly recently handed-out ports (so most are still open), then any
  // handed-out port (open, closed or broken), sometimes numbers no one
  // allocated.
  auto pick = [&]() -> std::pair<DomainId, EvtchnPort> {
    const std::uint64_t roll = rng.NextBelow(20);
    if (roll == 0) {
      return {domain(), EvtchnPort(1u << 30)};
    }
    if (roll == 1) {
      return {DomainId::Invalid(), EvtchnPort(rng.NextBelow(4))};
    }
    if (roll == 2 || known.empty()) {
      return {domain(), EvtchnPort(rng.NextBelow(8))};
    }
    const std::size_t window = roll < 8 ? known.size() : 12;
    return known[known.size() - 1 -
                 rng.NextBelow(std::min(window, known.size()))];
  };
  auto virq = [&] {
    return static_cast<Virq>(
        rng.NextBelow(static_cast<std::uint64_t>(Virq::kCount)));
  };
  auto check_connections = [&] {
    for (std::uint32_t d = 0; d < real_fresh; ++d) {
      if (d > kDomains && d < kFirstFresh) {
        continue;
      }
      const std::uint32_t ports = d < kFirstFresh ? max_port + 2 : 3;
      for (std::uint32_t p = 0; p < ports; ++p) {
        ASSERT_EQ(real.IsConnected(DomainId(d), EvtchnPort(p)),
                  model.IsConnected(DomainId(d), EvtchnPort(p)))
            << "dom" << d << " port " << p;
      }
    }
  };
  auto run = [&] {
    sim.Run();
    model.Run();
    ExpectSameLog(real_log, model_log);
    ASSERT_EQ(real.sends(), model.sends());
    ASSERT_EQ(real.deliveries(), model.deliveries());
  };

  // Sets a handler (re-entrant 30% of the time) on both sides.
  auto set_handler = [&](DomainId target, EvtchnPort port,
                         std::string& real_out, std::string& model_out) {
    HandlerSpec spec;
    spec.domain = target;
    spec.port = port;
    spec.reentrant = rng.NextBool(0.3);
    // Another port of the handler's domain, never its own.
    spec.close_port = EvtchnPort(port.value() ^ 1);
    for (int tries = 0; tries < 4 && !known.empty(); ++tries) {
      const auto& [d, p] = known[rng.NextBelow(known.size())];
      if (d == target && p != port) {
        spec.close_port = p;
        break;
      }
    }
    spec.peer = DomainId(
        1 + (target.value() + rng.NextBelow(kDomains - 1)) % kDomains);
    real_out += Outcome(real.SetHandler(target, port, [&, spec] {
      RunHandler(real, spec, real_fresh, real_log);
    }));
    model_out += Outcome(model.SetHandler(target, port, spec));
  };

  for (int op = 0; op < 2000; ++op) {
    std::string real_out;
    std::string model_out;
    switch (rng.NextBelow(12)) {
      case 0: {
        const DomainId owner = domain();
        const DomainId remote =
            rng.NextBelow(30) == 0 ? DomainId::Invalid() : domain();
        StatusOr<EvtchnPort> port = real.AllocUnbound(owner, remote);
        real_out = Outcome(port);
        model_out = Outcome(model.AllocUnbound(owner, remote));
        note(owner, port);
        if (port.ok()) {
          offers.push_back({owner, *port, remote});
        }
        break;
      }
      case 1:
      case 2: {
        // Mostly a recent offer by its reserved binder; otherwise any port
        // (live, stale or never allocated) by any domain.
        auto [remote, remote_port] = pick();
        DomainId caller = domain();
        if (!offers.empty() && rng.NextBool(0.7)) {
          const Offer& offer =
              offers[offers.size() - 1 -
                     rng.NextBelow(std::min<std::size_t>(6, offers.size()))];
          remote = offer.owner;
          remote_port = offer.port;
          caller = rng.NextBool(0.8) ? offer.binder : caller;
        }
        StatusOr<EvtchnPort> port =
            real.BindInterdomain(caller, remote, remote_port);
        real_out = Outcome(port);
        model_out =
            Outcome(model.BindInterdomain(caller, remote, remote_port));
        note(caller, port);
        if (port.ok() && rng.NextBool(0.6)) {  // both ends get handlers
          set_handler(caller, *port, real_out, model_out);
          set_handler(remote, remote_port, real_out, model_out);
        }
        break;
      }
      case 3: {
        const DomainId target = domain();
        const Virq v = virq();
        StatusOr<EvtchnPort> port = real.BindVirq(target, v);
        real_out = Outcome(port);
        model_out = Outcome(model.BindVirq(target, v));
        note(target, port);
        break;
      }
      case 4: {
        const DomainId target = domain();
        const Virq v = virq();
        real_out = Outcome(real.RaiseVirq(target, v));
        model_out = Outcome(model.RaiseVirq(target, v));
        break;
      }
      case 5: {
        const auto [target, port] = pick();
        set_handler(target, port, real_out, model_out);
        break;
      }
      case 6:
      case 7:
      case 8: {
        const auto [caller, port] = pick();
        real_out = Outcome(real.Send(caller, port));
        model_out = Outcome(model.Send(caller, port));
        break;
      }
      case 9: {
        const auto [target, port] = pick();
        real_out = Outcome(real.Close(target, port));
        model_out = Outcome(model.Close(target, port));
        break;
      }
      case 10: {
        if (rng.NextBool(0.7)) {
          run();
          break;
        }
        const DomainId target = domain();
        real_out = StrFormat("%d", real.CloseAll(target));
        model_out = StrFormat("%d", model.CloseAll(target));
        break;
      }
      default:
        run();
        break;
    }
    ASSERT_EQ(real_out, model_out) << "op " << op;
    if (op % 100 == 99) {
      check_connections();
    }
  }
  run();
  check_connections();
  // The sequence did exercise re-entrant handlers.
  EXPECT_GT(std::count_if(real_log.begin(), real_log.end(),
                          [](const std::string& e) {
                            return e.rfind("alloc", 0) == 0;
                          }),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvtchnModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace xoar
