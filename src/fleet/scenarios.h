// Fleet resilience scenarios (RESILIENCE.md "Fleet"): the three
// operations a production rack must survive, driven end-to-end against a
// live Fleet with workloads running and fault campaigns armed. Shared by
// bench/fleet_campaign and tests/fleet_test the same way RunProbeCampaign
// is shared by bench/fault_campaign — record/replay only means anything
// when the recorder and the verifier execute the same driver.
//
//   1. Evacuation under fire: drain every guest off a victim host while a
//      randomized fault campaign (shard crashes, hangs, and
//      kMigrationStreamDrop windows) runs on it. Stream drops abort
//      mid-migration; the orchestrator retries with bounded exponential
//      backoff and the destination shell is provably torn down each time.
//   2. Rolling microreboot upgrade wave: host by host, evacuate, slow-
//      restart every restartable shard (the "upgrade"), then hold a
//      health gate — the step's own workload p99 (HistWindow delta) must
//      stay under the SLO or the wave aborts and the fleet re-spreads.
//      The storm variant arms wall-to-wall stream-drop windows on every
//      host so evacuations fail, guests ride through shard restarts, p99
//      breaches, and the gate must trip.
//   3. Rebalance after a traffic spike: quadruple the net demand of one
//      host's guests and let the load balancer migrate the spread back
//      under threshold.
//
// Invariants are checked at the end (Fleet::CheckInvariants): no leaked
// half-built domains anywhere, no double placements, restart budgets
// respected, the controller alive and supervised. Violations come back
// counted in the summary, not as errors.
#ifndef XOAR_SRC_FLEET_SCENARIOS_H_
#define XOAR_SRC_FLEET_SCENARIOS_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/fleet/fleet.h"
#include "src/obs/trace.h"

namespace xoar {

struct FleetScenarioOptions {
  std::uint64_t seed = 42;
  int hosts = 8;
  int tenants = 4;
  int guests_per_host = 4;

  // Scenario 1: evacuation under an active fault campaign on the victim.
  bool run_evacuation = true;
  int victim_host = 1;  // host 0 carries the fleet controller
  int campaign_faults = 10;
  int campaign_migration_drops = 3;
  double campaign_seconds = 4.0;

  // Scenario 2: rolling upgrade waves.
  bool run_wave = true;
  bool run_storm_wave = true;
  // Healthy steps sit near ~11 ms p99 (guests evacuated before the
  // restarts); a storm step where evacuations fail and resident guests
  // ride through slow shard restarts lands near ~140 ms — the gate splits
  // the two regimes with wide margin on both sides.
  double gate_p99_ms = 100.0;

  // Scenario 3: rebalance after a traffic spike.
  bool run_rebalance = true;

  // Full-stream trace observer attached to the victim host's tracer
  // before Boot (JournalRecorder to record, ReplayVerifier to verify).
  TraceSink* sink = nullptr;
  // Where to write the fleet.* metric report (BENCH-shape JSON, binary
  // name "fleet_campaign"); empty skips the write.
  std::string metrics_out;
};

struct WaveOutcome {
  int steps = 0;          // wave steps completed (incl. the breaching one)
  bool aborted = false;   // health gate tripped
  double p99_ms_max = 0;  // worst per-step delta p99/p999
  double p999_ms_max = 0;
  int rebalance_moves = 0;  // re-spread moves after an abort
};

struct FleetScenarioSummary {
  int hosts = 0;
  int guests_placed = 0;
  std::uint64_t admission_shed = 0;

  // Scenario 1.
  int evac_moved = 0;
  int evac_failed = 0;
  int evac_retries = 0;
  int evac_stream_drop_aborts = 0;
  std::uint64_t stream_drops_injected = 0;

  // Scenario 2.
  WaveOutcome clean_wave;
  WaveOutcome storm_wave;
  bool storm_converged = false;  // spread back under threshold post-storm

  // Scenario 3.
  int rebalance_moves = 0;
  double spread_before = 0;
  double spread_after = 0;

  // Workload + interference.
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  double p99_ms = 0;  // whole-run latency percentiles
  double p999_ms = 0;
  double interference_p99_ratio = 0;

  // Invariants (sum must be zero for a passing campaign).
  std::uint64_t leaked_domains = 0;
  std::uint64_t placement_errors = 0;
  std::uint64_t budget_breaches = 0;
  std::uint64_t controller_failures = 0;
  std::uint64_t stale_xenstore_dirs = 0;
  std::uint64_t violations = 0;
};

// Runs the configured scenarios to completion on a fresh fleet. Errors
// (boot/placement/report-write failure) are environmental; invariant
// violations and gate trips are results, counted in the summary.
StatusOr<FleetScenarioSummary> RunFleetCampaign(
    const FleetScenarioOptions& options);

}  // namespace xoar

#endif  // XOAR_SRC_FLEET_SCENARIOS_H_
