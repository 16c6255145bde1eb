// Simulator-core raw-speed microbenchmark (DESIGN.md §5f).
//
//   micro_sim_core [--events N] [--ops N] [--requests N]
//                  [--out BENCH_sim_core.json]
//
// Times the event-queue hot paths of the slab/4-ary-heap kernel
// (src/sim/simulator.h) against the retired priority_queue + hash-map
// kernel kept verbatim as LegacySimulator (src/sim/legacy_simulator.h),
// plus one end-to-end driver-ring workload on a booted XoarPlatform:
//
//   schedule_fire  - sustained schedule+fire through a 512Ki-event window;
//                    the pure alloc/heap-push/pop/invoke/free cycle.
//   schedule_cancel- schedule a full window, Cancel() every event; the old
//                    kernel tombstones and pays the pop later, the new one
//                    removes in place.
//   timer_churn    - the retry/backoff pattern: a standing population of
//                    armed timers, each firing reschedules and each round
//                    cancels half before they fire.
//   delay_mix      - the perfbench io_steady schedule traffic on a bare
//                    kernel: requests in flight as chains of hops at a few
//                    fixed delays, each under a 250 ms deadline cancelled
//                    on completion, beside 10 ms heartbeats.
//   ring_drain     - guest block writes through BlkFront/BlkBack with
//                    batched ring drains; reports wall-clock requests/sec
//                    and the sim-deterministic events-per-request cost.
//
// Wall-clock timing (std::chrono::steady_clock) is confined to this bench
// binary — the simulation itself stays deterministic, and the
// `ring_drain.sim_events_per_request` gauge is a pure function of the
// workload, byte-stable across runs and machines. The *_per_sec gauges and
// the speedup ratios vary with the host; validate_obs --sim therefore
// bounds them only as "present and positive" and pins the deterministic
// events-per-request cost.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/drv/blk.h"
#include "src/obs/metrics.h"
#include "src/sim/legacy_simulator.h"
#include "src/sim/simulator.h"

namespace xoar {
namespace {

struct Options {
  std::uint64_t events = 4'000'000;   // schedule_fire total events
  std::uint64_t ops = 1'000'000;      // schedule_cancel/timer_churn/delay_mix
  std::uint64_t requests = 20'000;    // ring_drain block requests
  std::string out = "BENCH_sim_core.json";
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Sustained schedule+fire: a 512Ki-event standing window where every fired
// event schedules its successor at a pseudo-random delay, so the queue
// stays deep and every event pays one push and one pop at the occupancy a
// dense consolidated host actually sees (hundreds of guests' worth of
// armed deadlines and in-flight completions). Returns events/sec.
template <typename Sim>
struct FireState {
  Sim sim;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t total = 0;
  std::uint32_t lcg = 0x2545f491u;

  SimDuration NextDelay() {
    lcg = lcg * 1664525u + 1013904223u;
    return 1 + (lcg >> 22);  // 1..1024
  }
};

// 48-byte capture modeling a driver completion: the state pointer plus the
// request fields a blkback completion carries (guest, request id, sector,
// length, flags, tag). It fits the new kernel's 48-byte inline buffer
// exactly; std::function's 16-byte small-buffer cannot hold it, so the
// legacy kernel heap-allocates every callback — that type-erasure tax was
// part of the old design.
template <typename Sim>
struct FireBody {
  FireState<Sim>* s;
  std::uint64_t guest;
  std::uint64_t id;
  std::uint64_t sector;
  std::uint32_t len;
  std::uint32_t flags;
  std::uint64_t tag;
  void operator()() const {
    ++s->fired;
    if (s->scheduled < s->total) {
      ++s->scheduled;
      s->sim.ScheduleAfter(s->NextDelay(),
                           FireBody{s, guest + 1, id ^ s->lcg, sector + len,
                                    len, flags, tag ^ guest});
    }
  }
};
static_assert(sizeof(FireBody<Simulator>) == 48);

template <typename Sim>
double RunScheduleFire(std::uint64_t total_events) {
  auto state = std::make_unique<FireState<Sim>>();
  state->total = total_events;
  constexpr std::uint64_t kWindow = 512 * 1024;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kWindow && state->scheduled < total_events;
       ++i) {
    ++state->scheduled;
    state->sim.ScheduleAfter(
        state->NextDelay(),
        FireBody<Sim>{state.get(), i, i, i * 8, 4096, 0, i});
  }
  state->sim.Run();
  const double elapsed = SecondsSince(start);
  if (state->fired != total_events) {
    std::fprintf(stderr, "schedule_fire fired %llu of %llu events\n",
                 static_cast<unsigned long long>(state->fired),
                 static_cast<unsigned long long>(total_events));
    std::exit(2);
  }
  return static_cast<double>(total_events) / elapsed;
}

// Min-time methodology: the best of three reps discards runs perturbed by
// other tenants of the machine. Both kernels get the same treatment.
template <typename Run>
double BestOfThree(Run run) {
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, run());
  }
  return best;
}

// Schedule a full window then Cancel() all of it, repeatedly. One "op" is
// one schedule+cancel pair. The legacy kernel's Cancel only tombstones, so
// each round ends with Run() to drain — that deferred pop is part of what
// the old design actually paid per cancellation.
template <typename Sim>
double RunScheduleCancel(std::uint64_t total_ops) {
  Sim sim;
  Rng rng(11);
  constexpr std::uint64_t kWindow = 1024;
  std::vector<EventId> handles;
  handles.reserve(kWindow);
  std::uint64_t done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < total_ops) {
    handles.clear();
    const std::uint64_t round =
        std::min<std::uint64_t>(kWindow, total_ops - done);
    for (std::uint64_t i = 0; i < round; ++i) {
      handles.push_back(sim.ScheduleAfter(1 + rng.NextBelow(1024), [] {}));
    }
    for (EventId id : handles) {
      sim.Cancel(id);
    }
    sim.Run();
    done += round;
  }
  const double elapsed = SecondsSince(start);
  return static_cast<double>(total_ops) / elapsed;
}

// Retry-timer churn: a standing population of armed timers. Each round
// cancels every other timer and re-arms it further out; survivors fire and
// re-arm themselves. One "op" is one cancel+reschedule.
template <typename Sim>
double RunTimerChurn(std::uint64_t total_ops) {
  Sim sim;
  Rng rng(13);
  constexpr std::uint64_t kTimers = 512;
  std::vector<EventId> timers(kTimers, EventId::Invalid());
  std::uint64_t done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < total_ops) {
    for (std::uint64_t i = 0; i < kTimers; ++i) {
      timers[i] = sim.ScheduleAfter(1000 + rng.NextBelow(1000), [] {});
    }
    while (done < total_ops) {
      const std::uint64_t i = rng.NextBelow(kTimers);
      sim.Cancel(timers[i]);
      timers[i] = sim.ScheduleAfter(1000 + rng.NextBelow(1000), [] {});
      ++done;
      if ((done & (kTimers * 8 - 1)) == 0) {
        break;  // periodically drain so legacy tombstones don't accumulate
      }
    }
    sim.Run();
  }
  const double elapsed = SecondsSince(start);
  return static_cast<double>(total_ops) / elapsed;
}

// Delay mix: a histogram of when - Now() over 10.3 M perfbench io_steady
// schedules put 99 % of them at six delays. Here 192 requests stay in
// flight (32 guests x 6), each a chain of hops at the block/net path's
// delays — 1 us event-channel latency, 4 us backend turnaround, 762 us
// service, 400 us rx gap — under a 250 ms deadline that the chain's last
// hop cancels, beside 224 heartbeats every 10 ms. Per schedule that is
// 44 % 1 us, 22 % 400 us, 11 % each 4 us, 762 us and 250 ms, and 2 %
// 10 ms, as in io_steady. One op is one schedule; no deadline may fire.
constexpr SimDuration kMixHops[] = {
    1 * kMicrosecond,   4 * kMicrosecond, 762 * kMicrosecond,
    1 * kMicrosecond,   400 * kMicrosecond, 1 * kMicrosecond,
    400 * kMicrosecond, 1 * kMicrosecond};
constexpr std::uint32_t kMixHopCount = std::size(kMixHops);
constexpr std::uint32_t kMixRequests = 192;
constexpr std::uint32_t kMixHeartbeats = 224;
constexpr SimDuration kMixDeadline = 250 * kMillisecond;
constexpr SimDuration kMixHeartbeat = 10 * kMillisecond;

template <typename Sim>
struct MixState {
  Sim sim;
  std::uint64_t scheduled = 0;
  std::uint64_t total = 0;
  std::uint64_t timeouts = 0;
  std::vector<EventId> deadlines = std::vector<EventId>(kMixRequests);

  template <typename F>
  EventId Schedule(SimDuration delay, F fn) {
    ++scheduled;
    return sim.ScheduleAfter(delay, std::move(fn));
  }
  void StartRequest(std::uint32_t request);
};

template <typename Sim>
struct MixHop {
  MixState<Sim>* s;
  std::uint32_t request;
  std::uint32_t hop;
  void operator()() const {
    if (hop + 1 < kMixHopCount) {
      s->Schedule(kMixHops[hop + 1], MixHop{s, request, hop + 1});
      return;
    }
    s->sim.Cancel(s->deadlines[request]);
    if (s->scheduled < s->total) {
      s->StartRequest(request);
    }
  }
};

template <typename Sim>
void MixState<Sim>::StartRequest(std::uint32_t request) {
  deadlines[request] = Schedule(kMixDeadline, [this] { ++timeouts; });
  Schedule(kMixHops[0], MixHop<Sim>{this, request, 0});
}

template <typename Sim>
struct MixHeartbeat {
  MixState<Sim>* s;
  void operator()() const {
    if (s->scheduled < s->total) {
      s->Schedule(kMixHeartbeat, *this);
    }
  }
};

template <typename Sim>
double RunDelayMix(std::uint64_t total_ops) {
  auto state = std::make_unique<MixState<Sim>>();
  state->total = total_ops;
  const auto start = std::chrono::steady_clock::now();
  // Stagger the starts across one heartbeat period so requests and
  // heartbeats do not move in lockstep.
  for (std::uint32_t i = 0; i < kMixHeartbeats; ++i) {
    state->sim.RunUntil(i * (kMixHeartbeat / kMixHeartbeats));
    state->Schedule(kMixHeartbeat, MixHeartbeat<Sim>{state.get()});
    if (i < kMixRequests) {
      state->StartRequest(i);
    }
  }
  state->sim.Run();
  const double elapsed = SecondsSince(start);
  if (state->timeouts != 0) {
    std::fprintf(stderr, "delay_mix: %llu deadlines fired\n",
                 static_cast<unsigned long long>(state->timeouts));
    std::exit(2);
  }
  return static_cast<double>(state->scheduled) / elapsed;
}

struct RingDrainResult {
  double requests_per_sec = 0;
  double sim_events_per_request = 0;
};

// End-to-end driver-ring workload: 4 KiB guest block writes with 16
// requests outstanding, through the batched BlkBack drain path. The
// events-per-request gauge is sim-deterministic; requests/sec is wall time.
RingDrainResult RunRingDrain(std::uint64_t total_requests) {
  XoarPlatform platform;
  if (!platform.Boot().ok()) {
    std::fprintf(stderr, "ring_drain: boot failed\n");
    std::exit(2);
  }
  StatusOr<DomainId> guest =
      platform.CreateGuest(GuestSpec{.name = "bench"});
  if (!guest.ok()) {
    std::fprintf(stderr, "ring_drain: guest creation failed\n");
    std::exit(2);
  }
  platform.Settle();
  BlkFront* blkfront = platform.blkfront(*guest);
  if (blkfront == nullptr) {
    std::fprintf(stderr, "ring_drain: no block frontend\n");
    std::exit(2);
  }
  Simulator& sim = platform.sim();
  const std::uint64_t events_before = sim.EventsExecuted();

  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  constexpr std::uint64_t kOutstanding = 16;
  std::function<void()> submit = [&] {
    while (issued < total_requests &&
           issued - completed - failed < kOutstanding) {
      const std::uint64_t offset = (issued * 4096) % (1 * kMiB);
      ++issued;
      blkfront->WriteBytes(offset, 4096, [&](Status status) {
        status.ok() ? ++completed : ++failed;
        submit();
      });
    }
  };
  // A booted platform keeps periodic timers (watchdog heartbeats) armed
  // forever, so Run() would never return; advance in slices until the
  // request stream drains.
  const auto start = std::chrono::steady_clock::now();
  submit();
  while (completed + failed < total_requests) {
    sim.RunFor(100 * kMillisecond);
  }
  const double elapsed = SecondsSince(start);
  if (completed != total_requests) {
    std::fprintf(stderr, "ring_drain: %llu of %llu requests completed\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(total_requests));
    std::exit(2);
  }
  RingDrainResult result;
  result.requests_per_sec = static_cast<double>(total_requests) / elapsed;
  result.sim_events_per_request =
      static_cast<double>(sim.EventsExecuted() - events_before) /
      static_cast<double>(total_requests);
  return result;
}

int RunBench(const Options& options) {
  const double fire_new =
      BestOfThree([&] { return RunScheduleFire<Simulator>(options.events); });
  const double fire_old = BestOfThree(
      [&] { return RunScheduleFire<LegacySimulator>(options.events); });
  const double cancel_new =
      BestOfThree([&] { return RunScheduleCancel<Simulator>(options.ops); });
  const double cancel_old = BestOfThree(
      [&] { return RunScheduleCancel<LegacySimulator>(options.ops); });
  const double churn_new =
      BestOfThree([&] { return RunTimerChurn<Simulator>(options.ops); });
  const double churn_old =
      BestOfThree([&] { return RunTimerChurn<LegacySimulator>(options.ops); });
  const double mix_new =
      BestOfThree([&] { return RunDelayMix<Simulator>(options.ops); });
  const double mix_old =
      BestOfThree([&] { return RunDelayMix<LegacySimulator>(options.ops); });
  const RingDrainResult ring = RunRingDrain(options.requests);

  MetricRegistry metrics;
  metrics.GetGauge("sim_core.schedule_fire.events_per_sec")->Set(fire_new);
  metrics.GetGauge("sim_core.schedule_fire.baseline_events_per_sec")
      ->Set(fire_old);
  metrics.GetGauge("sim_core.schedule_fire.speedup")->Set(fire_new / fire_old);
  metrics.GetGauge("sim_core.schedule_cancel.ops_per_sec")->Set(cancel_new);
  metrics.GetGauge("sim_core.schedule_cancel.baseline_ops_per_sec")
      ->Set(cancel_old);
  metrics.GetGauge("sim_core.schedule_cancel.speedup")
      ->Set(cancel_new / cancel_old);
  metrics.GetGauge("sim_core.timer_churn.ops_per_sec")->Set(churn_new);
  metrics.GetGauge("sim_core.timer_churn.baseline_ops_per_sec")
      ->Set(churn_old);
  metrics.GetGauge("sim_core.timer_churn.speedup")->Set(churn_new / churn_old);
  metrics.GetGauge("sim_core.delay_mix.ops_per_sec")->Set(mix_new);
  metrics.GetGauge("sim_core.delay_mix.baseline_ops_per_sec")->Set(mix_old);
  metrics.GetGauge("sim_core.delay_mix.speedup")->Set(mix_new / mix_old);
  metrics.GetGauge("sim_core.ring_drain.requests_per_sec")
      ->Set(ring.requests_per_sec);
  metrics.GetGauge("sim_core.ring_drain.sim_events_per_request")
      ->Set(ring.sim_events_per_request);

  PrintHeading(StrFormat(
      "Simulator core (events %llu, ops %llu, requests %llu)",
      static_cast<unsigned long long>(options.events),
      static_cast<unsigned long long>(options.ops),
      static_cast<unsigned long long>(options.requests)));
  Table table({"workload", "new (ops/s)", "legacy (ops/s)", "speedup"});
  table.AddRow({"schedule+fire", StrFormat("%.0f", fire_new),
                StrFormat("%.0f", fire_old),
                StrFormat("%.2fx", fire_new / fire_old)});
  table.AddRow({"schedule+cancel", StrFormat("%.0f", cancel_new),
                StrFormat("%.0f", cancel_old),
                StrFormat("%.2fx", cancel_new / cancel_old)});
  table.AddRow({"timer churn", StrFormat("%.0f", churn_new),
                StrFormat("%.0f", churn_old),
                StrFormat("%.2fx", churn_new / churn_old)});
  table.AddRow({"delay mix", StrFormat("%.0f", mix_new),
                StrFormat("%.0f", mix_old),
                StrFormat("%.2fx", mix_new / mix_old)});
  table.AddRow({"ring drain (req/s)",
                StrFormat("%.0f", ring.requests_per_sec), "-",
                StrFormat("%.2f ev/req", ring.sim_events_per_request)});
  table.Print();

  Status status = metrics.WriteJsonFile(options.out, "micro_sim_core");
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", options.out.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  std::printf("\nsim-core report -> %s\n", options.out.c_str());
  return 0;
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  xoar::Options options;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--events") == 0) {
      options.events = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      options.ops = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      options.requests = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.out = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events N] [--ops N] [--requests N] "
                   "[--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  return xoar::RunBench(options);
}
