// fleet_evacuate: 4 hosts with 32 guests running FleetWorkload traffic.
// One orchestrating caller, depth 1, repeats a cycle: EvacuateHost(k) for
// the next host in a seeded order, a rolling fast RestartNow("NetBack") on
// each host, Rebalance(), then CheckInvariants(). The only workload with
// migration retry, quiesce/drain and reconnect-after-restart on the
// blocking path: it exercises the fleet orchestrator, ctl/migration and
// core microreboots.
#include <algorithm>
#include <memory>

#include "perfbench/src/workload.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/fleet/fleet.h"
#include "src/fleet/workload.h"

namespace perfbench {
namespace {

using xoar::Fleet;
using xoar::FleetGuestId;
using xoar::Status;

constexpr int kHosts = 4;
constexpr int kGuests = 32;
constexpr int kTenants = 8;
constexpr double kGuestNetDemandBps = 40e6;
// Time a NetBack restart gets before the next host's: longer than the
// fast-path downtime, so the restarts roll rather than overlap.
constexpr xoar::SimDuration kRestartSettle = 200 * xoar::kMillisecond;

// Forwards to the FleetWorkload and times each migration from the fleet's
// quiesce call to its resume call.
class TimedQuiescer : public xoar::MigrationQuiescer {
 public:
  TimedQuiescer(xoar::FleetWorkload* inner, Tracer* tracer,
                LatencyHistogram* samples)
      : inner_(inner), tracer_(*tracer), samples_(samples) {}

  Status QuiesceGuest(FleetGuestId guest) override {
    start_ = NowNs();
    Span span(tracer_, "fleet.QuiesceGuest", Layer::kFleet, guest);
    return inner_->QuiesceGuest(guest);
  }

  void ResumeGuest(FleetGuestId guest) override {
    inner_->ResumeGuest(guest);
    samples_->Add(NowNs() - start_);
  }

 private:
  xoar::FleetWorkload* inner_;
  Tracer& tracer_;
  LatencyHistogram* samples_;
  Nanos start_ = 0;
};

class FleetEvacuate : public Workload {
 public:
  explicit FleetEvacuate(Tracer* tracer) : Workload(tracer) {}

  Status Setup(std::uint64_t seed, Probes*) override {
    xoar::Rng rng(seed);
    xoar::FleetConfig config;
    config.hosts = kHosts;
    // Small web guests converge in a few pre-copy rounds (as in the fleet
    // campaign).
    config.migration.dirty_rate_bytes_per_sec = 24e6;
    fleet_ = std::make_unique<Fleet>(config);
    XOAR_RETURN_IF_ERROR(fleet_->Boot());
    traffic_ = std::make_unique<xoar::FleetWorkload>(fleet_.get());
    quiescer_ = std::make_unique<TimedQuiescer>(traffic_.get(), &tracer_,
                                                &tally_.op_ns);
    fleet_->set_quiescer(quiescer_.get());
    for (int g = 0; g < kGuests; ++g) {
      xoar::GuestSpec spec;
      spec.name = xoar::StrFormat("web-%d", g);
      spec.memory_mb = 128;
      spec.vcpus = 1;
      spec.tenant = xoar::StrFormat(
          "tenant-%d", static_cast<int>(rng.NextBelow(kTenants)));
      XOAR_ASSIGN_OR_RETURN(FleetGuestId id,
                            fleet_->CreateGuest(spec, kGuestNetDemandBps));
      XOAR_RETURN_IF_ERROR(traffic_->Attach(id));
    }
    for (int h = 0; h < kHosts; ++h) {
      order_.push_back(h);
      fleet_->host(h).Settle();
    }
    for (int h = kHosts - 1; h > 0; --h) {
      std::swap(order_[h], order_[rng.NextBelow(h + 1)]);
    }
    fleet_->SyncClocks();
    fleet_->AdvanceAll(500 * xoar::kMillisecond);  // warm the request loops
    ok_at_start_ = traffic_->ok();
    latency_window_ =
        std::make_unique<xoar::HistWindow>(traffic_->latency_hist());
    return Status::Ok();
  }

  void Round(std::uint64_t round) override {
    Fleet::EvacuationStats evac;
    {
      Span span(tracer_, "fleet.EvacuateHost", Layer::kFleet, round);
      evac = fleet_->EvacuateHost(order_[round % kHosts]);
    }
    NoteMoves(evac.moved, evac.failed);
    for (int h = 0; h < kHosts; ++h) {
      {
        Span span(tracer_, "core.RestartNow", Layer::kCore, round);
        Note(fleet_->host(h).restarts().RestartNow("NetBack", /*fast=*/true));
      }
      Span span(tracer_, "sim.AdvanceAll", Layer::kSim, round);
      fleet_->AdvanceAll(kRestartSettle);
    }
    {
      Span span(tracer_, "fleet.Rebalance", Layer::kFleet, round);
      NoteMoves(fleet_->Rebalance(), 0);
    }
    Span span(tracer_, "fleet.CheckInvariants", Layer::kFleet, round);
    violations_ += fleet_->CheckInvariants().violations();
    tally_.ios = traffic_->ok() - ok_at_start_;
  }

  // Every host evacuated three times.
  std::uint64_t checkpoint_rounds() const override { return 3 * kHosts; }

  WorkCounters Counters() override {
    WorkCounters counters;
    for (int h = 0; h < kHosts; ++h) {
      xoar::XoarPlatform& host = fleet_->host(h);
      AddHostCounters(host.sim(), host.hv(), host.xenstore(), host.obs(),
                      &counters);
    }
    xoar::MetricRegistry& metrics = fleet_->metrics();
    counters.v[kMigrationsAttempted] =
        metrics.GetCounter("fleet.migrations.attempted")->value();
    counters.v[kMigrationsCompleted] =
        metrics.GetCounter("fleet.migrations.completed")->value();
    return counters;
  }

  std::size_t PendingEvents() override {
    std::size_t pending = 0;
    for (int h = 0; h < kHosts; ++h) {
      pending = std::max(pending, fleet_->host(h).sim().PendingEvents());
    }
    return pending;
  }

  double IoSimP99Ms() override { return latency_window_->Percentile(0.99); }

  std::uint64_t StateDigest() override {
    Fnv64 digest;
    digest.Add(fleet_->Now());
    std::size_t nodes = 0;
    for (int h = 0; h < kHosts; ++h) {
      for (FleetGuestId id : fleet_->GuestsOnHost(h)) {
        digest.Add(id);
        digest.Add(fleet_->guest(id)->domain.value());
      }
      nodes += fleet_->host(h).xenstore().store().NodeCount();
      AddAudit(fleet_->host(h).audit(), &digest);
    }
    digest.Add(nodes);
    AddAudit(fleet_->audit(), &digest);
    digest.Add(traffic_->ok());
    digest.Add(traffic_->failed());
    return digest.value();
  }

  void Finish(std::vector<std::string>* failures) override {
    for (int h = 0; h < kHosts; ++h) {
      for (FleetGuestId id : fleet_->GuestsOnHost(h)) {
        traffic_->Detach(id);
      }
    }
    // Block deadlines are 2 s with up to 8 retries; let every ladder end.
    fleet_->AdvanceAll(20 * xoar::kSecond);
    fleet_->SyncClocks();
    violations_ += fleet_->CheckInvariants().violations();
    if (violations_ != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu fleet invariant violations",
          static_cast<unsigned long long>(violations_)));
    }
    const std::uint64_t sent = traffic_->issued();
    const std::uint64_t done = traffic_->ok() + traffic_->failed();
    if (traffic_->total_pending() != 0 || sent != done ||
        traffic_->failed() != 0) {
      failures->push_back(xoar::StrFormat(
          "guest traffic: %llu sent, %llu ok, %llu failed, %d in flight",
          static_cast<unsigned long long>(sent),
          static_cast<unsigned long long>(traffic_->ok()),
          static_cast<unsigned long long>(traffic_->failed()),
          traffic_->total_pending()));
    }
    if (tally_.failed != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu migrations or restarts failed",
          static_cast<unsigned long long>(tally_.failed)));
    }
  }

  std::vector<Metric> Figures(double loop_s) override {
    return {
        {"migrations_per_s", static_cast<double>(tally_.ops) / loop_s, "1/s"},
        {"io_per_s", static_cast<double>(tally_.ios) / loop_s, "1/s"},
    };
  }

 private:
  void NoteMoves(int moved, int failed) {
    for (int i = 0; i < moved; ++i) {
      Note(Status::Ok());
    }
    for (int i = 0; i < failed; ++i) {
      Note(xoar::AbortedError("guest could not be moved"));
    }
    tally_.ops += static_cast<std::uint64_t>(moved);
  }

  std::vector<int> order_;  // seeded evacuation order
  std::uint64_t ok_at_start_ = 0;
  std::uint64_t violations_ = 0;
  // Declared so the fleet is destroyed first: its simulators hold
  // callbacks into the traffic generator.
  std::unique_ptr<xoar::FleetWorkload> traffic_;
  std::unique_ptr<TimedQuiescer> quiescer_;
  std::unique_ptr<xoar::HistWindow> latency_window_;
  std::unique_ptr<Fleet> fleet_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleetEvacuate(Tracer* tracer) {
  return std::make_unique<FleetEvacuate>(tracer);
}

}  // namespace perfbench
