// Seeded randomized fault-injection campaign against a booted XoarPlatform
// (RESILIENCE.md "Running a campaign"; the driver itself lives in
// src/fault/campaign.h so record and replay execute the same code path).
//
//   fault_campaign [--seed N] [--faults N] [--seconds S] [--crashes N]
//                  [--hangs N] [--box-corrupts N]
//                  [--out BENCH_fault_campaign.json]
//                  [--record JOURNAL | --replay JOURNAL]
//
// A FaultPlan::Randomized schedule of transient windows plus shard
// crashes, service-loop hangs, and recovery-box corruptions runs while a
// probe guest continuously exercises the three client-visible services:
// XenStore reads, block writes, and network transmits. The campaign
// reports availability (fraction of probes answered OK), mean recovery
// time per outage episode, how many transient faults the retry/backoff
// layer absorbed without a microreboot, what the watchdog detected and
// auto-recovered, and the invariant violations that must stay at zero:
//
//   1. the host never fails (faults are contained to shards);
//   2. every probe completes — nothing wedges forever;
//   3. after the campaign drains, both frontends are reconnected and a
//      final probe of every service succeeds;
//   4. supervision closed its loop: every injected hang was detected (or
//      absorbed by an independent restart of the same shard) and the
//      worst detection latency stayed within the heartbeat timeout;
//   5. every injected recovery-box corruption was caught by fast-path
//      validation and rejected onto the slow path — never resumed from.
//
// Everything is driven by the simulator clock and the plan's seed: the same
// seed writes a byte-identical JSON report. Exits non-zero if any invariant
// is violated.
//
// Record/replay (DEBUGGING.md, src/replay/harness.h): --record journals the
// run's full trace stream plus the campaign parameters; --replay re-runs the
// journaled parameters and verifies every event against the recording,
// exiting 1 at the first divergence. `xoar_replay diff` compares two
// journals.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/fault/campaign.h"
#include "src/replay/harness.h"

namespace xoar {
namespace {

void PrintCampaignReport(const CampaignRunOptions& options,
                         const CampaignSummary& summary) {
  PrintHeading(StrFormat("Fault campaign (seed %llu, %d windows, %d crashes, "
                         "%d hangs, %d box corruptions, %.1f s)",
                         static_cast<unsigned long long>(options.seed),
                         options.faults, options.crashes, options.hangs,
                         options.box_corrupts, options.seconds));
  Table schedule({"t (ms)", "fault", "window (ms)", "p", "target"});
  for (const FaultSpec& spec : summary.plan.specs()) {
    // Fire-once faults (crash, hang, box corruption) name a target; only
    // transient windows have a probability, and only windows and hangs
    // have a duration.
    const bool targeted = !spec.target.empty();
    const bool timed = spec.type != FaultType::kShardCrash &&
                       spec.type != FaultType::kRecoveryBoxCorrupt;
    schedule.AddRow(
        {StrFormat("%.1f", static_cast<double>(spec.at - summary.start) /
                               static_cast<double>(kMillisecond)),
         std::string(FaultTypeName(spec.type)),
         timed ? StrFormat("%.1f", static_cast<double>(spec.duration) /
                                       static_cast<double>(kMillisecond))
               : "-",
         targeted ? "-" : StrFormat("%.2f", spec.probability),
         targeted ? spec.target : "-"});
  }
  schedule.Print();

  Table results({"metric", "value"});
  results.AddRow({"probes issued", StrFormat("%llu", summary.probes_issued)});
  results.AddRow({"availability",
                  StrFormat("%.4f", summary.availability)});
  results.AddRow({"faults injected",
                  StrFormat("%llu", summary.faults_injected)});
  results.AddRow({"absorbed by retry/backoff",
                  StrFormat("%llu", summary.absorbed_by_retry)});
  results.AddRow({"microreboots", StrFormat("%llu", summary.microreboots)});
  results.AddRow({"crashes skipped",
                  StrFormat("%llu", summary.crashes_skipped)});
  results.AddRow({"mean recovery (ms)",
                  StrFormat("%.2f", summary.mean_recovery_ms)});
  results.AddRow(
      {"hangs injected / detected / absorbed",
       StrFormat("%llu / %llu / %llu",
                 static_cast<unsigned long long>(summary.hangs_injected),
                 static_cast<unsigned long long>(summary.hangs_detected),
                 static_cast<unsigned long long>(summary.hangs_absorbed))});
  results.AddRow(
      {"worst hang detection (ms)",
       StrFormat("%.2f (timeout %.0f)",
                 static_cast<double>(summary.hang_detection_max) /
                     static_cast<double>(kMillisecond),
                 static_cast<double>(summary.heartbeat_timeout) /
                     static_cast<double>(kMillisecond))});
  results.AddRow({"watchdog auto restarts",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        summary.auto_restarts))});
  results.AddRow({"quarantines",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        summary.quarantines))});
  results.AddRow({"boxes corrupted / rejected",
                  StrFormat("%llu / %llu", summary.box_corrupts_injected,
                            summary.boxes_rejected)});
  results.AddRow({"invariant violations",
                  StrFormat("%llu", summary.violations)});
  results.Print();
}

int ReportViolations(const CampaignSummary& summary) {
  if (summary.violations == 0) {
    return 0;
  }
  std::fprintf(stderr,
               "INVARIANT VIOLATIONS: host_failures=%llu lost_probes=%llu "
               "final_failures=%llu supervision_failures=%llu\n",
               static_cast<unsigned long long>(summary.host_failures),
               static_cast<unsigned long long>(summary.lost_probes),
               static_cast<unsigned long long>(summary.final_failures),
               static_cast<unsigned long long>(summary.supervision_failures));
  return 1;
}

// The scenario: one campaign with `sink` observing it. Writes the report
// only when `options.metrics_out` is set.
int Run(CampaignRunOptions options, TraceSink* sink) {
  options.sink = sink;
  StatusOr<CampaignSummary> summary = RunProbeCampaign(options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 2;
  }
  PrintCampaignReport(options, *summary);
  if (!options.metrics_out.empty()) {
    std::printf("\ncampaign report -> %s\n", options.metrics_out.c_str());
  }
  return ReportViolations(*summary);
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  xoar::CampaignRunOptions options;
  options.metrics_out = "BENCH_fault_campaign.json";
  std::string record;
  std::string replay;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      options.faults = std::atoi(next());
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      options.seconds = std::atof(next());
    } else if (std::strcmp(argv[i], "--crashes") == 0) {
      options.crashes = std::atoi(next());
    } else if (std::strcmp(argv[i], "--hangs") == 0) {
      options.hangs = std::atoi(next());
    } else if (std::strcmp(argv[i], "--box-corrupts") == 0) {
      options.box_corrupts = std::atoi(next());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.metrics_out = next();
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record = next();
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--faults N] [--seconds S] "
                   "[--crashes N] [--hangs N] [--box-corrupts N] "
                   "[--out FILE] [--record JOURNAL | --replay JOURNAL]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!replay.empty()) {
    return xoar::ReplayRun(
        replay, [](const xoar::JournalMeta& meta, xoar::TraceSink* sink) {
          return xoar::Run(xoar::CampaignRunOptions::FromMeta(meta), sink);
        });
  }
  if (!record.empty()) {
    return xoar::RecordRun(record, options.ToMeta(),
                           [&](xoar::TraceSink* sink) {
                             return xoar::Run(options, sink);
                           });
  }
  return xoar::Run(options, nullptr);
}
