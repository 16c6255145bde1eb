// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// --trace 0 is the measured run: it sets the workload up at least 3 times
// and until 2 s have gone into setups (setup_s is their median), then runs
// closed-loop rounds on the last setup for S host seconds and reports the
// end-to-end metrics. Its timings are in reference seconds: host seconds
// scaled by the machine speed a SpeedProbe samples alongside, so that
// co-tenants slowing a shared host do not read as a slower program.
// --trace 1 is the traced
// run: it runs the deterministic window (checkpoint_rounds) once untraced
// and once, from a fresh setup with the cliff probes, with a span around
// every benchmark->layer call, and reports the per-layer metrics, span self
// times and the tracing overhead (traced minus untraced wall time).
//
// Both runs print the sim_digest and the exact-match work counters taken
// after exactly checkpoint_rounds rounds; they repeat byte for byte for a
// fixed seed. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workload.h"
#include "src/base/log.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
};

struct Entry {
  std::string_view name;
  std::unique_ptr<Workload> (*make)(Tracer*);
};

constexpr Entry kWorkloads[] = {
    {"density_churn", MakeDensityChurn},
    {"io_steady", MakeIoSteady},
    {"xs_mixed", MakeXsMixed},
    {"fleet_evacuate", MakeFleetEvacuate},
};

// State after exactly checkpoint_rounds rounds.
struct Checkpoint {
  std::uint64_t digest = 0;
  WorkCounters work;
  std::uint64_t ios = 0;
  std::uint64_t creates = 0;
  double io_sim_p99_ms = 0;
  // Peak RSS so far: setups plus the window, a fixed amount of work, so a
  // faster program does not read as a bigger one.
  double peak_rss_mb = 0;
};

struct Pass {
  double loop_s = 0;       // host seconds
  double scaled_s = 0;     // reference seconds (== loop_s without a probe)
  std::uint64_t rounds = 0;
  std::size_t pending_max = 0;
  WorkCounters work;  // over the whole loop
  Checkpoint checkpoint;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string Number(double value) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

Checkpoint TakeCheckpoint(Workload& w, const WorkCounters& start) {
  Checkpoint cp;
  Fnv64 digest;
  digest.Add(w.StateDigest());
  digest.Add(w.tally().statuses.value());
  cp.digest = digest.value();
  cp.work = w.Counters().Since(start);
  cp.ios = w.tally().ios;
  cp.creates = w.tally().creates;
  cp.io_sim_p99_ms = w.IoSimP99Ms();
  cp.peak_rss_mb = PeakRssMb();
  return cp;
}

// Runs rounds until the checkpoint is taken and `seconds` of loop time have
// passed (seconds == 0: exactly the checkpoint window). With a probe, the
// machine's speed is sampled every kProbeEvery of loop time; each interval
// is counted in reference seconds, and the op latency histograms are scaled
// by a moving average of the samples (one sample is too noisy to scale a
// single latency by). The checkpoint's and the probe's own cost are left
// out of the loop time.
Pass RunLoop(Workload& w, Tracer& tracer, double seconds,
             SpeedProbe* probe = nullptr) {
  constexpr Nanos kProbeEvery = 10'000'000;
  Pass pass;
  const WorkCounters start = w.Counters();
  const std::uint64_t window = w.checkpoint_rounds();
  const Nanos budget = static_cast<Nanos>(seconds * 1e9);
  double speed = probe != nullptr ? probe->Speed() : 1.0;
  double smoothed = speed;
  Nanos paused = 0;
  Nanos probed_at = 0;
  const Nanos t0 = NowNs();
  for (;;) {
    const Nanos now = NowNs() - t0 - paused;
    if (probe != nullptr && (now - probed_at >= kProbeEvery ||
                             (pass.rounds >= window && now >= budget))) {
      const Nanos p0 = NowNs();
      const double sample = probe->Speed();
      pass.scaled_s += ToSeconds(now - probed_at) * 0.5 * (speed + sample);
      speed = sample;
      smoothed += 0.2 * (sample - smoothed);
      probed_at = now;
      w.tally().op_ns.set_scale(smoothed);
      w.tally().aux_ns.set_scale(smoothed);
      paused += NowNs() - p0;
    }
    if (pass.rounds >= window && now >= budget) {
      break;
    }
    {
      Span span(tracer, "bench.round", Layer::kBench, pass.rounds);
      w.Round(pass.rounds);
    }
    pass.pending_max = std::max(pass.pending_max, w.PendingEvents());
    if (++pass.rounds == window) {
      const Nanos p0 = NowNs();
      pass.checkpoint = TakeCheckpoint(w, start);
      paused += NowNs() - p0;
    }
  }
  pass.loop_s = ToSeconds(NowNs() - t0 - paused);
  if (probe == nullptr) {
    pass.scaled_s = pass.loop_s;
  }
  pass.work = w.Counters().Since(start);
  return pass;
}

// Work ratios that repeat byte for byte for a fixed seed.
std::vector<Metric> ExactCounters(const Checkpoint& cp) {
  const WorkCounters& d = cp.work;
  const double ios = static_cast<double>(cp.ios);
  const double creates = static_cast<double>(cp.creates);
  return {
      {"sim.events_per_io", Ratio(d[kSimEvents], ios), "count"},
      {"hv.hypercalls_per_create", Ratio(d[kHypercalls], creates), "count"},
      {"xs.requests_per_create", Ratio(d[kXsRequests], creates), "count"},
      {"fleet.attempts_per_move",
       Ratio(d[kMigrationsAttempted], d[kMigrationsCompleted]), "count"},
  };
}

void PrintDeterministic(const Checkpoint& cp) {
  std::printf("sim_digest %016llx\n",
              static_cast<unsigned long long>(cp.digest));
  std::string line = "exact";
  for (const Metric& m : ExactCounters(cp)) {
    line += " " + m.name + "=" + Number(m.value);
  }
  std::printf("%s\n", line.c_str());
}

// Prints the metrics, then the JSON result as the last stdout line.
void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %s %s\n", m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
  }
  std::string json = correct ? "{\"correct\": true" : "{\"correct\": false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool Report(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::printf("check FAILED: %s\n", f.c_str());
  }
  return failures.empty();
}

// Measured run: end-to-end metrics with tracing off.
int RunMeasured(const Options& options, const Entry& entry) {
  Tracer tracer;  // stays disabled
  SpeedProbe probe;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  constexpr std::size_t kMinSetups = 3;
  constexpr std::size_t kMaxSetups = 50;
  double setup_total_s = 0;
  while (setup_s.size() < kMinSetups ||
         (setup_total_s < 2.0 && setup_s.size() < kMaxSetups)) {
    w.reset();  // tear the previous system down before the next setup
    w = entry.make(&tracer);
    // Reference seconds, at the machine speed sampled on either side.
    const double speed_before = probe.Speed();
    const Nanos t0 = NowNs();
    const xoar::Status status = w->Setup(options.seed, nullptr);
    const double host_s = ToSeconds(NowNs() - t0);
    setup_total_s += host_s;
    setup_s.push_back(host_s * 0.5 * (speed_before + probe.Speed()));
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  const Pass pass = RunLoop(*w, tracer, options.seconds, &probe);
  std::vector<std::string> failures;
  w->Finish(&failures);
  const Tally& tally = w->tally();

  std::printf("workload %s seed %llu rounds %llu loop_s %s reference_s %s\n",
              std::string(entry.name).c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(pass.rounds),
              Number(pass.loop_s).c_str(), Number(pass.scaled_s).c_str());
  for (const Metric& f : w->Figures(pass.scaled_s)) {
    std::printf("figure %-20s %s %s\n", f.name.c_str(),
                Number(f.value).c_str(), f.unit.c_str());
  }
  if (pass.checkpoint.ios > 0) {
    std::printf("figure %-20s %s ms (window of %llu rounds)\n",
                "io_sim_p99_ms", Number(pass.checkpoint.io_sim_p99_ms).c_str(),
                static_cast<unsigned long long>(w->checkpoint_rounds()));
  }
  std::printf("figure %-20s %s ratio\n", "error_rate",
              Number(Ratio(tally.failed, tally.attempted)).c_str());
  PrintDeterministic(pass.checkpoint);
  const bool correct = Report(failures);

  const std::vector<Metric> metrics = {
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"ops_per_s", Ratio(tally.ops, pass.scaled_s), "1/s"},
      {"op_p50_us", tally.op_ns.PercentileNs(0.50) / 1e3, "us"},
      {"op_p90_us", tally.op_ns.PercentileNs(0.90) / 1e3, "us"},
      {"sim_events_per_s", Ratio(pass.work[kSimEvents], pass.scaled_s),
       "1/s"},
      {"peak_rss_mb", pass.checkpoint.peak_rss_mb, "MB"},
  };
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

// Traced run: per-layer metrics over the deterministic window.
int RunTraced(const Options& options, const Entry& entry) {
  Tracer tracer;
  Pass untraced;
  {
    std::unique_ptr<Workload> w = entry.make(&tracer);
    const xoar::Status status = w->Setup(options.seed, nullptr);
    if (!status.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
      return 2;
    }
    untraced = RunLoop(*w, tracer, 0);
  }
  Probes probes;
  std::unique_ptr<Workload> w = entry.make(&tracer);
  const xoar::Status status = w->Setup(options.seed, &probes);
  if (!status.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
    return 2;
  }
  tracer.set_enabled(true);
  const Pass traced = RunLoop(*w, tracer, 0);
  tracer.set_enabled(false);
  std::vector<std::string> failures;
  w->Finish(&failures);
  if (traced.checkpoint.digest != untraced.checkpoint.digest) {
    failures.push_back("the traced run diverged from the untraced run");
  }
  const std::string spans_path =
      options.trace_dir + "/" + std::string(entry.name) + "-seed" +
      std::to_string(options.seed) + ".spans.tsv";
  const xoar::Status written = tracer.WriteTsv(spans_path);
  if (!written.ok()) {
    failures.push_back(written.ToString());
  }

  std::printf("workload %s seed %llu rounds %llu spans -> %s\n",
              std::string(entry.name).c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(traced.rounds),
              spans_path.c_str());
  PrintDeterministic(traced.checkpoint);
  const bool correct = Report(failures);

  const Checkpoint& cp = traced.checkpoint;
  const WorkCounters& d = cp.work;
  const Tally& tally = w->tally();
  const double ios = static_cast<double>(cp.ios);
  const double creates = static_cast<double>(cp.creates);
  // Host time per layer, in seconds on the figure lines and as a share of
  // the traced window in the result: a layer the workload bypasses reads a
  // share of 0, never a zero time.
  const double wall = traced.loop_s;
  std::vector<Metric> times = {
      {"sim.run_s", tracer.InclusiveSeconds(Layer::kSim), "s"},
      {"xs.call_s", tracer.InclusiveSeconds(Layer::kXs), "s"},
      {"drv.call_s", tracer.InclusiveSeconds(Layer::kDrv), "s"},
      {"ctl.create_s", tracer.NameSeconds("ctl.CreateGuest"), "s"},
      {"ctl.destroy_s", tracer.NameSeconds("ctl.DestroyGuest"), "s"},
      {"core.restart_s", tracer.InclusiveSeconds(Layer::kCore), "s"},
      {"fleet.migrate_s",
       tracer.NameSeconds("fleet.EvacuateHost") +
           tracer.NameSeconds("fleet.Rebalance"),
       "s"},
      {"fleet.advance_s", tracer.NameSeconds("sim.AdvanceAll"), "s"},
  };
  for (int i = 0; i < kLayerCount; ++i) {
    const Layer layer = static_cast<Layer>(i);
    times.push_back({std::string(LayerName(layer)) + ".self_s",
                     tracer.SelfSeconds(layer), "s"});
  }
  const std::vector<Metric> probe_times = {
      {"drv.image_probe_half_us", probes.image_half_us, "us"},
      {"drv.image_probe_full_us", probes.image_full_us, "us"},
      {"xs.read_probe_half_us", probes.read_half_us, "us"},
      {"xs.read_probe_full_us", probes.read_full_us, "us"},
      {"drv.io_sim_p99_ms", cp.io_sim_p99_ms, "ms"},
  };
  std::vector<Metric> metrics;
  for (const Metric& f : times) {
    const std::string base = f.name.substr(0, f.name.size() - 2);  // "_s"
    metrics.push_back({base + "_share", Ratio(f.value, wall), "ratio"});
  }
  times.insert(times.end(), probe_times.begin(), probe_times.end());
  for (const Metric& f : times) {
    std::printf("figure %-24s %s %s\n", f.name.c_str(),
                Number(f.value).c_str(), f.unit.c_str());
  }
  const std::vector<Metric> work = {
      {"sim.events", static_cast<double>(d[kSimEvents]), "count"},
      {"sim.pending_max", static_cast<double>(traced.pending_max), "count"},
      {"hv.grant_maps_per_io", Ratio(d[kGrantMaps], ios), "count"},
      {"hv.evtchn_sends_per_io", Ratio(d[kEvtchnSends], ios), "count"},
      {"hv.domain_table_scans", static_cast<double>(d[kTableScans]), "count"},
      {"xs.fanout_ops_per_create", Ratio(d[kXsFanoutOps], creates), "count"},
      {"xs.logic_restarts", static_cast<double>(d[kXsLogicRestarts]),
       "count"},
      {"xs.watch_fires_per_write", Ratio(d[kXsWatchFires], d[kXsWrites]),
       "count"},
      {"xs.tx_commit_ratio", Ratio(d[kXsTxCommitted], d[kXsTxStarted]),
       "ratio"},
      {"xs.nodes", static_cast<double>(d[kXsNodes]), "count"},
      // Cliff indicators: probe time at full over half population; about 1
      // for O(1) or O(log n) paths, about 2 for the O(n) ones.
      {"xs.read_probe_growth",
       Ratio(probes.read_full_us, probes.read_half_us), "ratio"},
      {"drv.image_probe_growth",
       Ratio(probes.image_full_us, probes.image_half_us), "ratio"},
      {"drv.blk_requests", static_cast<double>(d[kBlkRequests]), "count"},
      {"drv.net_frames", static_cast<double>(d[kNetFrames]), "count"},
      {"drv.first_try_ratio",
       Ratio(ios - std::min<double>(ios, d[kFrontRetries]), ios), "ratio"},
      {"drv.connects_per_create", Ratio(d[kDrvConnects], creates), "count"},
      {"core.microreboots", static_cast<double>(d[kMicroreboots]), "count"},
  };
  metrics.insert(metrics.end(), work.begin(), work.end());
  for (const Metric& m : ExactCounters(cp)) {
    metrics.push_back(m);
  }
  metrics.push_back(
      {"trace.spans", static_cast<double>(tracer.span_count()), "count"});
  metrics.push_back({"trace.untraced_s", untraced.loop_s, "s"});
  metrics.push_back({"trace.traced_s", traced.loop_s, "s"});
  metrics.push_back(
      {"trace.overhead_s", traced.loop_s - untraced.loop_s, "s"});
  PrintResult(correct, tally, metrics);
  return correct ? 0 : 1;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n  workloads:",
               argv0);
  for (const Entry& e : kWorkloads) {
    std::fprintf(stderr, " %s", std::string(e.name).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return perfbench::Usage(argv[0]);
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      options.trace_dir = value;
    } else {
      return perfbench::Usage(argv[0]);
    }
  }
  for (const perfbench::Entry& entry : perfbench::kWorkloads) {
    if (entry.name == options.workload) {
      return options.trace ? perfbench::RunTraced(options, entry)
                           : perfbench::RunMeasured(options, entry);
    }
  }
  return perfbench::Usage(argv[0]);
}
