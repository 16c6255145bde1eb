// Multi-host fleet resilience campaign (RESILIENCE.md "Fleet"; the driver
// lives in src/fleet/scenarios.h so record and replay execute the same
// code path).
//
//   fleet_campaign [--seed N] [--hosts N] [--guests-per-host N]
//                  [--tenants N] [--gate-p99-ms MS] [--evac-only]
//                  [--no-storm] [--out BENCH_fleet.json]
//                  [--record JOURNAL | --replay JOURNAL]
//
// Boots an N-host fleet (every host a full disaggregated XoarPlatform on
// one lockstep simulated clock), places tenant-striped web guests through
// the bin-pack/anti-affinity policy, runs Apache/wget-style request loops
// on all of them, and then drives the three fleet scenarios:
//
//   1. evacuation of a victim host under an active fault campaign
//      (shard crashes, hangs, and migration_stream_drop windows) — every
//      aborted migration must tear its destination shell down and retry
//      with bounded exponential backoff;
//   2. a rolling microreboot upgrade wave with a per-step p99 health
//      gate — plus a storm variant with wall-to-wall stream-drop windows
//      where evacuations fail, guests ride through shard restarts, and
//      the gate MUST trip and abort the wave;
//   3. rebalancing after a one-host traffic spike.
//
// Exits non-zero on any invariant violation (leaked half-built domains,
// double placements, watchdog budget breaches, a dead or unsupervised
// fleet controller) or on a scenario expectation failure (evacuation
// incomplete, clean wave aborted, storm gate not tripped, fleet not
// converged). The same seed writes a byte-identical BENCH_fleet.json.
//
// Record/replay (DEBUGGING.md, src/replay/harness.h): --record journals the
// victim host's full trace stream plus the scenario parameters; --replay
// re-runs the journaled parameters and verifies every event, exiting 1 at
// the first divergence. The CTest pair records the evacuation-only
// scenario.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/report.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/fleet/scenarios.h"
#include "src/replay/harness.h"

namespace xoar {
namespace {

struct Options {
  std::uint64_t seed = 42;
  int hosts = 8;
  int guests_per_host = 4;
  int tenants = 4;
  double gate_p99_ms = 100.0;
  bool evac_only = false;
  bool storm = true;
  std::string out = "BENCH_fleet.json";

  JournalMeta ToMeta() const {
    return {{"seed", StrFormat("%llu", static_cast<unsigned long long>(seed))},
            {"hosts", StrFormat("%d", hosts)},
            {"guests_per_host", StrFormat("%d", guests_per_host)},
            {"tenants", StrFormat("%d", tenants)},
            {"gate_p99_ms", StrFormat("%.6f", gate_p99_ms)},
            {"evac_only", evac_only ? "1" : "0"},
            {"storm", storm ? "1" : "0"}};
  }
  // A replay writes no report.
  static Options FromMeta(const JournalMeta& meta) {
    Options options;
    options.seed = std::strtoull(MetaValue(meta, "seed").c_str(), nullptr, 10);
    options.hosts = std::atoi(MetaValue(meta, "hosts").c_str());
    options.guests_per_host =
        std::atoi(MetaValue(meta, "guests_per_host").c_str());
    options.tenants = std::atoi(MetaValue(meta, "tenants").c_str());
    options.gate_p99_ms = std::atof(MetaValue(meta, "gate_p99_ms").c_str());
    options.evac_only = MetaValue(meta, "evac_only") == "1";
    options.storm = MetaValue(meta, "storm") == "1";
    options.out.clear();
    return options;
  }
};

FleetScenarioOptions ToScenarioOptions(const Options& options) {
  FleetScenarioOptions run;
  run.seed = options.seed;
  run.hosts = options.hosts;
  run.guests_per_host = options.guests_per_host;
  run.tenants = options.tenants;
  run.gate_p99_ms = options.gate_p99_ms;
  run.run_wave = !options.evac_only;
  run.run_rebalance = !options.evac_only;
  run.run_storm_wave = options.storm && !options.evac_only;
  run.metrics_out = options.out;
  return run;
}

void PrintFleetReport(const Options& options,
                      const FleetScenarioSummary& summary) {
  PrintHeading(StrFormat(
      "Fleet campaign (seed %llu, %d hosts, %d guests, %d tenants)",
      static_cast<unsigned long long>(options.seed), summary.hosts,
      summary.guests_placed, options.tenants));

  Table results({"metric", "value"});
  results.AddRow({"guests placed / shed",
                  StrFormat("%d / %llu", summary.guests_placed,
                            static_cast<unsigned long long>(
                                summary.admission_shed))});
  results.AddRow(
      {"evacuation moved / failed / retries",
       StrFormat("%d / %d / %d", summary.evac_moved, summary.evac_failed,
                 summary.evac_retries)});
  results.AddRow({"evacuation stream-drop aborts",
                  StrFormat("%d", summary.evac_stream_drop_aborts)});
  results.AddRow({"stream drops injected (fleet-wide)",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        summary.stream_drops_injected))});
  results.AddRow(
      {"clean wave steps / aborted",
       StrFormat("%d / %s", summary.clean_wave.steps,
                 summary.clean_wave.aborted ? "yes" : "no")});
  results.AddRow({"clean wave worst p99 / p999 (ms)",
                  StrFormat("%.2f / %.2f", summary.clean_wave.p99_ms_max,
                            summary.clean_wave.p999_ms_max)});
  results.AddRow(
      {"storm wave steps / aborted",
       StrFormat("%d / %s", summary.storm_wave.steps,
                 summary.storm_wave.aborted ? "yes" : "no")});
  results.AddRow({"storm wave worst p99 / p999 (ms)",
                  StrFormat("%.2f / %.2f", summary.storm_wave.p99_ms_max,
                            summary.storm_wave.p999_ms_max)});
  results.AddRow({"storm converged after disarm",
                  summary.storm_converged ? "yes" : "no"});
  results.AddRow({"rebalance spread before -> after",
                  StrFormat("%.3f -> %.3f (%d moves)",
                            summary.spread_before, summary.spread_after,
                            summary.rebalance_moves)});
  results.AddRow(
      {"workload requests issued / ok / failed",
       StrFormat("%llu / %llu / %llu",
                 static_cast<unsigned long long>(summary.requests_issued),
                 static_cast<unsigned long long>(summary.requests_ok),
                 static_cast<unsigned long long>(summary.requests_failed))});
  results.AddRow({"workload p99 / p999 (ms)",
                  StrFormat("%.2f / %.2f", summary.p99_ms, summary.p999_ms)});
  results.AddRow({"tenant interference p99 ratio",
                  StrFormat("%.3f", summary.interference_p99_ratio)});
  results.AddRow({"invariant violations",
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        summary.violations))});
  results.Print();
}

// Scenario expectations plus the zero-violation invariant; every failure
// is reported, the exit code covers them all.
int ReportFailures(const Options& options,
                   const FleetScenarioSummary& summary) {
  int failures = 0;
  auto fail = [&failures](const char* what) {
    std::fprintf(stderr, "EXPECTATION FAILED: %s\n", what);
    ++failures;
  };
  if (summary.violations != 0) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATIONS: leaked=%llu placement=%llu "
                 "budget=%llu controller=%llu xenstore=%llu\n",
                 static_cast<unsigned long long>(summary.leaked_domains),
                 static_cast<unsigned long long>(summary.placement_errors),
                 static_cast<unsigned long long>(summary.budget_breaches),
                 static_cast<unsigned long long>(summary.controller_failures),
                 static_cast<unsigned long long>(
                     summary.stale_xenstore_dirs));
    ++failures;
  }
  if (summary.evac_failed != 0 || summary.evac_moved == 0) {
    fail("evacuation did not drain the victim host");
  }
  if (!options.evac_only) {
    if (summary.clean_wave.aborted ||
        summary.clean_wave.steps != summary.hosts) {
      fail("clean upgrade wave did not complete every step");
    }
    if (options.storm) {
      if (!summary.storm_wave.aborted) {
        fail("storm wave health gate never tripped");
      }
      if (!summary.storm_converged) {
        fail("fleet did not converge after the storm");
      }
    }
    if (summary.spread_after > summary.spread_before) {
      fail("rebalance made the spread worse");
    }
  }
  return failures == 0 ? 0 : 1;
}

// The scenario: one fleet campaign with `sink` observing the victim host.
// Writes the report only when `options.out` is set.
int Run(const Options& options, TraceSink* sink) {
  FleetScenarioOptions run = ToScenarioOptions(options);
  run.sink = sink;
  StatusOr<FleetScenarioSummary> summary = RunFleetCampaign(run);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 2;
  }
  PrintFleetReport(options, *summary);
  if (!options.out.empty()) {
    std::printf("\nfleet report -> %s\n", options.out.c_str());
  }
  return ReportFailures(options, *summary);
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  xoar::Options options;
  std::string record;
  std::string replay;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--hosts") == 0) {
      options.hosts = std::atoi(next());
    } else if (std::strcmp(argv[i], "--guests-per-host") == 0) {
      options.guests_per_host = std::atoi(next());
    } else if (std::strcmp(argv[i], "--tenants") == 0) {
      options.tenants = std::atoi(next());
    } else if (std::strcmp(argv[i], "--gate-p99-ms") == 0) {
      options.gate_p99_ms = std::atof(next());
    } else if (std::strcmp(argv[i], "--evac-only") == 0) {
      options.evac_only = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      xoar::Logger::Get().set_level(xoar::LogLevel::kInfo);
    } else if (std::strcmp(argv[i], "--no-storm") == 0) {
      options.storm = false;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.out = next();
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record = next();
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay = next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (!replay.empty()) {
    return xoar::ReplayRun(
        replay, [](const xoar::JournalMeta& meta, xoar::TraceSink* sink) {
          return xoar::Run(xoar::Options::FromMeta(meta), sink);
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
