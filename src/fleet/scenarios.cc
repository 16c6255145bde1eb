#include "src/fleet/scenarios.h"

#include <algorithm>
#include <vector>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/fleet/workload.h"
#include "src/obs/obs.h"

namespace xoar {
namespace {

// Every guest is a small web server.
constexpr std::uint64_t kGuestMemoryMb = 192;
constexpr double kGuestNetDemandBps = 40e6;
// Scenario 2: how long each upgrade-wave step runs before the health gate
// judges it, and how long the storm's wall-to-wall drop windows last on
// every host.
constexpr SimDuration kWaveStepWindow = 1500 * kMillisecond;
constexpr double kStormSeconds = 20.0;
// Scenario 3: the spiked host, its traffic multiplier, and the load spread
// every rebalance drives under.
constexpr int kSpikeHost = 2;
constexpr double kSpikeMultiplier = 4.0;
constexpr double kSpreadThreshold = 0.18;

// Load spread (max - min host load fraction) — the quantity Rebalance
// drives under its threshold.
double Spread(Fleet& fleet) {
  double max_load = 0;
  double min_load = 1e300;
  for (int i = 0; i < fleet.host_count(); ++i) {
    max_load = std::max(max_load, fleet.HostLoadFraction(i));
    min_load = std::min(min_load, fleet.HostLoadFraction(i));
  }
  return max_load - min_load;
}

// Every slow-restartable shard the upgrade wave cycles on one host.
// XenStore-State shards are deliberately left out: their contents are the
// durable tree, upgraded via snapshot+rollback, not by the wave.
std::vector<std::string> UpgradeTargets(XoarPlatform& host) {
  std::vector<std::string> names;
  for (int i = 0; i < host.netback_count(); ++i) {
    names.push_back(i == 0 ? "NetBack" : StrFormat("NetBack-%d", i));
  }
  for (int i = 0; i < host.blkback_count(); ++i) {
    names.push_back(i == 0 ? "BlkBack" : StrFormat("BlkBack-%d", i));
  }
  names.push_back("XenStore-Logic");
  return names;
}

// Wall-to-wall kMigrationStreamDrop coverage: one window spanning the
// whole storm, probability 1 — every migration attempt off the host sees
// a broken stream. Hand-built (not Randomized) so coverage is total.
FaultPlan StormPlan(SimTime start, double seconds) {
  FaultPlan plan;
  FaultSpec spec;
  spec.type = FaultType::kMigrationStreamDrop;
  spec.at = start + 1 * kMillisecond;
  spec.duration = FromSeconds(seconds);
  spec.probability = 1.0;
  plan.Add(std::move(spec));
  return plan;
}

// One rolling-upgrade wave: per host, evacuate, slow-restart every shard,
// observe one step window, and hold the health gate on the step's own
// latency delta. On a breach: abort, audit, re-spread.
WaveOutcome RunUpgradeWave(Fleet& fleet, FleetWorkload& workload,
                           const FleetScenarioOptions& options,
                           const std::string& label) {
  WaveOutcome outcome;
  HistWindow window(workload.latency_hist());
  for (int h = 0; h < fleet.host_count(); ++h) {
    const Fleet::EvacuationStats evac = fleet.EvacuateHost(h);
    // The gate judges the *upgraded host's* health: the delta window opens
    // after the evacuation, covering exactly the shard restarts and the
    // recovery of whatever guests are (still) resident.
    window.Mark();
    for (const std::string& name : UpgradeTargets(fleet.host(h))) {
      Status restarted = fleet.host(h).restarts().RestartNow(name, false);
      if (!restarted.ok()) {
        XLOG(kWarning) << "[fleet] wave " << label << " host " << h
                    << " restart " << name << ": " << restarted;
      }
    }
    fleet.AdvanceAll(kWaveStepWindow);
    ++outcome.steps;
    const double p99 = window.Percentile(0.99);
    const double p999 = window.Percentile(0.999);
    outcome.p99_ms_max = std::max(outcome.p99_ms_max, p99);
    outcome.p999_ms_max = std::max(outcome.p999_ms_max, p999);
    MetricRegistry& metrics = fleet.metrics();
    metrics.GetGauge(StrFormat("fleet.wave.%s.step.%d.p99_ms",
                               label.c_str(), h))
        ->Set(p99);
    metrics.GetGauge(StrFormat("fleet.wave.%s.step.%d.p999_ms",
                               label.c_str(), h))
        ->Set(p999);
    const bool breached =
        window.count() > 0 && p99 > options.gate_p99_ms;
    fleet.audit().Record(AuditEvent{
        .time = fleet.Now(),
        .kind = AuditEventKind::kUpgradeWaveStep,
        .subject = fleet.controller_domain(),
        .detail = StrFormat(
            "wave=%s host=%d evac_failed=%d p99_ms=%.2f gate_ms=%.0f%s",
            label.c_str(), h, evac.failed, p99, options.gate_p99_ms,
            breached ? " BREACH" : "")});
    if (breached) {
      outcome.aborted = true;
      // Abort the wave and put the fleet back into a healthy spread: the
      // evacuations this wave did complete left load lopsided.
      outcome.rebalance_moves =
          fleet.Rebalance(kSpreadThreshold);
      break;
    }
  }
  return outcome;
}

}  // namespace

StatusOr<FleetScenarioSummary> RunFleetCampaign(
    const FleetScenarioOptions& options) {
  FleetConfig config;
  config.hosts = options.hosts;
  // Small web guests converge in a handful of pre-copy rounds; the
  // per-attempt deadline stays well clear of a healthy migration.
  config.migration.dirty_rate_bytes_per_sec = 24e6;
  // Retries must out-wait a whole stream-drop window (300-700 ms below):
  // 120+240+480+960+1000 ms of cumulative backoff guarantees a later
  // attempt lands outside any single window.
  config.migration_backoff.initial_delay = 120 * kMillisecond;
  config.migration_backoff.max_delay = 1 * kSecond;
  config.migration_attempts = 6;

  Fleet fleet(config);
  const int victim =
      std::clamp(options.victim_host, 0, fleet.host_count() - 1);
  if (options.sink != nullptr) {
    // Attach before Boot so the journal covers the victim host's whole
    // life; the tracer is a pure observer, so recording cannot perturb.
    fleet.host(victim).obs().tracer().set_enabled(true);
    fleet.host(victim).obs().tracer().set_sink(options.sink);
  }
  XOAR_RETURN_IF_ERROR(fleet.Boot());

  FleetScenarioSummary summary;
  summary.hosts = fleet.host_count();
  MetricRegistry& metrics = fleet.metrics();
  metrics.GetGauge("fleet.seed")->Set(static_cast<double>(options.seed));

  // --- Populate: tenant-striped guests through the bin-pack policy. ---
  FleetWorkload workload(&fleet);
  fleet.set_quiescer(&workload);
  const int target_guests = options.hosts * options.guests_per_host;
  for (int g = 0; g < target_guests; ++g) {
    GuestSpec spec;
    spec.name = StrFormat("web-%d", g);
    spec.memory_mb = kGuestMemoryMb;
    spec.vcpus = 1;
    spec.tenant = StrFormat("tenant-%d", g % std::max(1, options.tenants));
    StatusOr<FleetGuestId> id =
        fleet.CreateGuest(spec, kGuestNetDemandBps);
    if (!id.ok()) {
      return InternalError(StrFormat("guest %d placement failed: %s", g,
                                     id.status().ToString().c_str()));
    }
    XOAR_RETURN_IF_ERROR(workload.Attach(*id));
  }
  // Admission control probe: a guest no host can absorb must be shed,
  // not overcommitted.
  GuestSpec whale;
  whale.name = "whale";
  whale.memory_mb = 64 * 1024;
  if (StatusOr<FleetGuestId> shed = fleet.CreateGuest(whale, 0);
      shed.ok() || shed.status().code() != StatusCode::kResourceExhausted) {
    return InternalError("admission controller failed to shed the whale");
  }
  summary.guests_placed = fleet.guest_count();
  for (int i = 0; i < fleet.host_count(); ++i) {
    fleet.host(i).Settle();
  }
  fleet.SyncClocks();
  fleet.AdvanceAll(500 * kMillisecond);  // warm the request loops

  // --- Scenario 1: evacuate the victim under an active fault campaign ---
  if (options.run_evacuation) {
    CampaignConfig campaign;
    campaign.seed = options.seed * 1000003ull + static_cast<std::uint64_t>(victim);
    campaign.fault_count = options.campaign_faults;
    campaign.crash_count = 1;
    campaign.hang_count = 1;
    campaign.box_corrupt_count = 0;
    campaign.migration_drop_count = options.campaign_migration_drops;
    // Wide enough that a multi-round pre-copy reliably polls inside one;
    // narrow enough that the backoff ladder escapes it.
    campaign.min_migration_drop_window = 300 * kMillisecond;
    campaign.max_migration_drop_window = 700 * kMillisecond;
    campaign.start = fleet.Now();
    campaign.end = campaign.start + FromSeconds(options.campaign_seconds);
    fleet.injector(victim)->Arm(FaultPlan::Randomized(campaign));

    const Fleet::EvacuationStats evac = fleet.EvacuateHost(victim);
    summary.evac_moved = evac.moved;
    summary.evac_failed = evac.failed;
    summary.evac_retries = evac.retries;
    summary.evac_stream_drop_aborts = evac.stream_drop_aborts;

    // Let the campaign window close and every microreboot finish.
    while (fleet.Now() < campaign.end) {
      fleet.AdvanceAll(100 * kMillisecond);
    }
    fleet.injector(victim)->Disarm();
    fleet.AdvanceAll(2 * kSecond);
  }

  // --- Scenario 2: rolling microreboot upgrade waves ---
  if (options.run_wave) {
    summary.clean_wave = RunUpgradeWave(fleet, workload, options, "clean");

    if (options.run_storm_wave) {
      // Storm: every host's migration stream is broken for the whole
      // window, so evacuations fail, guests ride through the shard
      // restarts, and the health gate MUST trip.
      const SimTime storm_start = fleet.Now();
      for (int i = 0; i < fleet.host_count(); ++i) {
        fleet.injector(i)->Arm(
            StormPlan(storm_start, kStormSeconds));
      }
      summary.storm_wave =
          RunUpgradeWave(fleet, workload, options, "storm");
      for (int i = 0; i < fleet.host_count(); ++i) {
        fleet.injector(i)->Disarm();
      }
      fleet.AdvanceAll(2 * kSecond);
      // Converge back: with the streams healthy again the balancer must
      // restore a tight spread.
      fleet.Rebalance(kSpreadThreshold);
      fleet.AdvanceAll(1 * kSecond);
      summary.storm_converged = Spread(fleet) <= kSpreadThreshold;
    }
  }

  // --- Scenario 3: rebalance after a traffic spike ---
  if (options.run_rebalance) {
    const int spike_host =
        std::clamp(kSpikeHost, 0, fleet.host_count() - 1);
    for (FleetGuestId id : fleet.GuestsOnHost(spike_host)) {
      const FleetGuestRecord* record = fleet.guest(id);
      workload.SetDemandMultiplier(id, kSpikeMultiplier);
      XOAR_RETURN_IF_ERROR(fleet.SetNetDemand(
          id, record->net_demand_bps * kSpikeMultiplier));
    }
    fleet.AdvanceAll(1 * kSecond);
    summary.spread_before = Spread(fleet);
    summary.rebalance_moves = fleet.Rebalance(kSpreadThreshold);
    fleet.AdvanceAll(1 * kSecond);
    summary.spread_after = Spread(fleet);
  }

  // --- Drain, interference, invariants, report ---
  // Stop the request loops first, then let every in-flight request and
  // retry ladder run to completion (worst chain: 2 s block deadlines x 8
  // retries — same bound as the single-host campaign drain). A request
  // still pending after this is genuinely lost and counts as a violation.
  for (int i = 0; i < fleet.host_count(); ++i) {
    for (FleetGuestId id : fleet.GuestsOnHost(i)) {
      workload.Detach(id);
    }
  }
  fleet.AdvanceAll(FromSeconds(20.0));
  fleet.SyncClocks();
  summary.admission_shed = 1;  // the whale above
  summary.stream_drops_injected =
      fleet.TotalInjected(FaultType::kMigrationStreamDrop);
  summary.requests_issued = workload.issued();
  summary.requests_ok = workload.ok();
  summary.requests_failed = workload.failed();
  summary.p99_ms = workload.latency_hist()->Percentile(0.99);
  summary.p999_ms = workload.latency_hist()->Percentile(0.999);
  summary.interference_p99_ratio = workload.TenantP99Ratio();

  const Fleet::InvariantReport invariants = fleet.CheckInvariants();
  summary.leaked_domains = invariants.leaked_domains;
  summary.placement_errors = invariants.placement_errors;
  summary.budget_breaches = invariants.budget_breaches;
  summary.controller_failures = invariants.controller_failures;
  summary.stale_xenstore_dirs = invariants.stale_xenstore_dirs;
  summary.violations = invariants.violations();
  if (workload.total_pending() > 0) {
    summary.violations += static_cast<std::uint64_t>(
        workload.total_pending());  // requests lost in flight
  }

  metrics.GetGauge("fleet.evac.moved")
      ->Set(static_cast<double>(summary.evac_moved));
  metrics.GetGauge("fleet.evac.failed")
      ->Set(static_cast<double>(summary.evac_failed));
  metrics.GetGauge("fleet.evac.retries")
      ->Set(static_cast<double>(summary.evac_retries));
  metrics.GetGauge("fleet.evac.stream_drop_aborts")
      ->Set(static_cast<double>(summary.evac_stream_drop_aborts));
  metrics.GetGauge("fleet.faults.migration_stream_drops")
      ->Set(static_cast<double>(summary.stream_drops_injected));
  metrics.GetGauge("fleet.wave.clean.steps")
      ->Set(static_cast<double>(summary.clean_wave.steps));
  metrics.GetGauge("fleet.wave.clean.aborted")
      ->Set(summary.clean_wave.aborted ? 1.0 : 0.0);
  metrics.GetGauge("fleet.wave.clean.p99_ms_max")
      ->Set(summary.clean_wave.p99_ms_max);
  metrics.GetGauge("fleet.wave.clean.p999_ms_max")
      ->Set(summary.clean_wave.p999_ms_max);
  metrics.GetGauge("fleet.wave.storm.steps")
      ->Set(static_cast<double>(summary.storm_wave.steps));
  metrics.GetGauge("fleet.wave.storm.aborted")
      ->Set(summary.storm_wave.aborted ? 1.0 : 0.0);
  metrics.GetGauge("fleet.wave.storm.p99_ms_max")
      ->Set(summary.storm_wave.p99_ms_max);
  metrics.GetGauge("fleet.wave.storm.p999_ms_max")
      ->Set(summary.storm_wave.p999_ms_max);
  metrics.GetGauge("fleet.wave.storm.converged")
      ->Set(summary.storm_converged ? 1.0 : 0.0);
  metrics.GetGauge("fleet.rebalance.spread_before")
      ->Set(summary.spread_before);
  metrics.GetGauge("fleet.rebalance.spread_after")
      ->Set(summary.spread_after);
  metrics.GetGauge("fleet.rebalance.spike_moves")
      ->Set(static_cast<double>(summary.rebalance_moves));
  metrics.GetGauge("fleet.interference.p99_ratio")
      ->Set(summary.interference_p99_ratio);
  metrics.GetGauge("fleet.workload.p99_ms")->Set(summary.p99_ms);
  metrics.GetGauge("fleet.workload.p999_ms")->Set(summary.p999_ms);
  metrics.GetGauge("fleet.clock_skew_us")
      ->Set(static_cast<double>(fleet.MaxClockSkew()) /
            static_cast<double>(kMicrosecond));
  metrics.GetGauge("fleet.invariant_violations")
      ->Set(static_cast<double>(summary.violations));

  if (!options.metrics_out.empty()) {
    XOAR_RETURN_IF_ERROR(metrics.WriteJsonFile(
        options.metrics_out, "fleet_campaign", fleet.Now()));
  }
  return summary;
}

}  // namespace xoar
