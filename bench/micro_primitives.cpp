// Microbenchmarks (google-benchmark) for the platform's communication
// primitives: hypercall policy checks, grant lifecycle, event-channel
// signalling, I/O-ring round trips, and XenStore operations. These are the
// building blocks whose costs §5.1 argues must stay small for
// disaggregation to be viable.
//
// Besides the google-benchmark console output, every primitive records its
// per-op wall latency into the Obs main() owns (`bench.micro.<primitive>_ns`
// histograms, beside the counters of the components under test), and main()
// exports that registry as BENCH_micro_primitives.json — the same JSON
// family the platform itself emits (see OBSERVABILITY.md). The in-loop
// sampling costs two steady_clock reads per iteration, so the reported
// numbers carry a small constant inflation; the histogram shape is what
// matters here.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/base/log.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_ring.h"
#include "src/obs/obs.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

// Per-op latency histogram in the bench's registry, 100ns..~100ms buckets.
// Stable pointer: resolve once per benchmark, observe per op.
Histogram* LatencyHist(Obs* obs, const char* primitive) {
  return obs->metrics().GetHistogram(
      MetricName("bench", "micro", primitive),
      Histogram::DefaultLatencyBoundsNs());
}

class OpTimer {
 public:
  explicit OpTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~OpTimer() {
    hist_->Observe(std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

struct HvFixture {
  explicit HvFixture(Obs* obs) {
    Logger::Get().set_level(LogLevel::kNone);
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    hv = std::make_unique<Hypervisor>(&sim, options, obs);
    DomainConfig boot_config;
    boot_config.name = "boot";
    boot_config.memory_mb = 32;
    boot_config.is_shard = true;
    boot = *hv->CreateInitialDomain(boot_config, false);
    // xoar-lint: allow(privilege): stock-Xen Dom0 baseline deliberately holds the full privileged set
    hv->domain(boot)->hypercall_policy().PermitAll();
    shard = NewDomain("shard", true);
    DomainConfig guest_config;
    guest_config.name = "guest";
    guest_config.memory_mb = 64;
    guest = *hv->CreateDomain(boot, guest_config);
    (void)hv->FinishBuild(boot, guest);
    (void)hv->UnpauseDomain(boot, guest);
    (void)hv->AllowDelegation(boot, shard, boot);
    (void)hv->AuthorizeShardUse(boot, guest, shard);
  }

  DomainId NewDomain(const char* name, bool is_shard) {
    DomainConfig config;
    config.name = name;
    config.memory_mb = 32;
    config.is_shard = is_shard;
    DomainId id = *hv->CreateDomain(boot, config);
    (void)hv->FinishBuild(boot, id);
    (void)hv->UnpauseDomain(boot, id);
    return id;
  }

  Simulator sim;
  std::unique_ptr<Hypervisor> hv;
  DomainId boot, shard, guest;
};

void BM_HypercallPolicyCheck(benchmark::State& state, Obs* obs) {
  HvFixture fixture(obs);
  Histogram* hist = LatencyHist(obs, "hypercall_check_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        fixture.hv->CheckHypercall(fixture.guest, Hypercall::kGrantTableOp));
  }
}

void BM_IvcPolicyCheck(benchmark::State& state, Obs* obs) {
  HvFixture fixture(obs);
  Histogram* hist = LatencyHist(obs, "ivc_check_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        fixture.hv->CheckIvcAllowed(fixture.guest, fixture.shard));
  }
}

void BM_GrantCreateMapUnmapEnd(benchmark::State& state, Obs* obs) {
  HvFixture fixture(obs);
  Pfn pfn = *fixture.hv->memory().AllocatePages(fixture.guest, 1);
  Histogram* hist = LatencyHist(obs, "grant_cycle_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    GrantRef ref =
        *fixture.hv->GrantAccess(fixture.guest, fixture.shard, pfn, true);
    benchmark::DoNotOptimize(
        fixture.hv->MapGrant(fixture.shard, fixture.guest, ref));
    (void)fixture.hv->UnmapGrant(fixture.shard, fixture.guest, ref);
    (void)fixture.hv->EndGrantAccess(fixture.guest, ref);
  }
}

void BM_EventChannelSendDeliver(benchmark::State& state, Obs* obs) {
  HvFixture fixture(obs);
  EvtchnPort unbound =
      *fixture.hv->EvtchnAllocUnbound(fixture.guest, fixture.shard);
  EvtchnPort bound =
      *fixture.hv->EvtchnBindInterdomain(fixture.shard, fixture.guest,
                                         unbound);
  int delivered = 0;
  (void)fixture.hv->EvtchnSetHandler(fixture.guest, unbound,
                                     [&] { ++delivered; });
  Histogram* hist = LatencyHist(obs, "evtchn_send_deliver_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)fixture.hv->EvtchnSend(fixture.shard, bound);
    fixture.sim.Run();
  }
  benchmark::DoNotOptimize(delivered);
}

struct RingReq {
  std::uint64_t id;
  std::uint32_t payload;
};
struct RingRsp {
  std::uint64_t id;
  std::int32_t status;
};

void BM_IoRingRoundTrip(benchmark::State& state, Obs* obs) {
  alignas(64) std::array<std::byte, kPageSize> page{};
  auto front = IoRing<RingReq, RingRsp>::Create(page.data());
  auto back = IoRing<RingReq, RingRsp>::Attach(page.data());
  std::uint64_t id = 0;
  Histogram* hist = LatencyHist(obs, "io_ring_round_trip_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    front.PushRequest({id, 42});
    auto req = back.PopRequest();
    back.PushResponse({req->id, 0});
    benchmark::DoNotOptimize(front.PopResponse());
    ++id;
  }
}

void BM_XenStoreWrite(benchmark::State& state, Obs* obs) {
  XsStore store(obs);
  store.AddManagerDomain(DomainId(0));
  std::uint64_t counter = 0;
  Histogram* hist = LatencyHist(obs, "xs_write_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)store.Write(DomainId(0), "/bench/key",
                      std::to_string(counter++));
  }
}

void BM_XenStoreReadDeepPath(benchmark::State& state, Obs* obs) {
  XsStore store(obs);
  store.AddManagerDomain(DomainId(0));
  (void)store.Write(DomainId(0), "/local/domain/7/device/vif/0/state", "4");
  Histogram* hist = LatencyHist(obs, "xs_read_deep_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    benchmark::DoNotOptimize(
        store.Read(DomainId(0), "/local/domain/7/device/vif/0/state"));
  }
}

void BM_XenStoreWatchFire(benchmark::State& state, Obs* obs) {
  XsStore store(obs);
  store.AddManagerDomain(DomainId(0));
  int fires = 0;
  (void)store.Watch(DomainId(0), "/w", "tok",
                    [&](const XsWatchEvent&) { ++fires; });
  std::uint64_t counter = 0;
  Histogram* hist = LatencyHist(obs, "xs_watch_fire_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    (void)store.Write(DomainId(0), "/w/key", std::to_string(counter++));
  }
  benchmark::DoNotOptimize(fires);
}

void BM_XenStoreTransaction(benchmark::State& state, Obs* obs) {
  XsStore store(obs);
  store.AddManagerDomain(DomainId(0));
  Histogram* hist = LatencyHist(obs, "xs_transaction_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    auto tx = store.TransactionStart(DomainId(0));
    (void)store.Write(DomainId(0), "/tx/a", "1", *tx);
    (void)store.TransactionEnd(DomainId(0), *tx, true);
  }
}

void BM_SimulatorScheduleRun(benchmark::State& state, Obs* obs) {
  Simulator sim;
  Histogram* hist = LatencyHist(obs, "sim_schedule_run_ns");
  for (auto _ : state) {
    OpTimer timer(hist);
    sim.ScheduleAfter(1, [] {});
    sim.Run();
  }
}

// Registers every primitive under its function's name. All of them report
// into `obs`.
void RegisterPrimitives(Obs* obs) {
  using Primitive = void (*)(benchmark::State&, Obs*);
  const std::pair<const char*, Primitive> primitives[] = {
      {"BM_HypercallPolicyCheck", BM_HypercallPolicyCheck},
      {"BM_IvcPolicyCheck", BM_IvcPolicyCheck},
      {"BM_GrantCreateMapUnmapEnd", BM_GrantCreateMapUnmapEnd},
      {"BM_EventChannelSendDeliver", BM_EventChannelSendDeliver},
      {"BM_IoRingRoundTrip", BM_IoRingRoundTrip},
      {"BM_XenStoreWrite", BM_XenStoreWrite},
      {"BM_XenStoreReadDeepPath", BM_XenStoreReadDeepPath},
      {"BM_XenStoreWatchFire", BM_XenStoreWatchFire},
      {"BM_XenStoreTransaction", BM_XenStoreTransaction},
      {"BM_SimulatorScheduleRun", BM_SimulatorScheduleRun},
  };
  for (const auto& [name, primitive] : primitives) {
    benchmark::RegisterBenchmark(
        name, [primitive, obs](benchmark::State& state) {
          primitive(state, obs);
        });
  }
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Obs obs;
  xoar::RegisterPrimitives(&obs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  xoar::Status status = obs.metrics().WriteJsonFile(
      "BENCH_micro_primitives.json", "micro_primitives");
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write BENCH_micro_primitives.json: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("\nper-op latency histograms -> BENCH_micro_primitives.json\n");
  return 0;
}
