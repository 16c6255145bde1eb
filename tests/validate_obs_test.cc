// Negative tests for tools/validate_obs. Each case starts from an export a
// tier-1 CTest fixture already wrote (quickstart metrics + trace, the fault
// campaign, sim-core, density, replay, fleet, lint and flow reports),
// breaks exactly one check — drops a field or pushes a value out of
// bounds — and requires validate_obs to reject the result with exit code
// 1. The untouched exports must still pass. The edits are textual: every
// exporter writes one JSON object per line, so a case is a string
// replacement on that line.
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

std::string ReadExport(const std::string& relative) {
  std::ifstream in(std::string(XOAR_BUILD_DIR) + "/" + relative,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_FALSE(text.str().empty()) << relative << " was not exported";
  return text.str();
}

std::string WriteCase(const std::string& name, const std::string& text) {
  const std::string path =
      std::string(XOAR_BUILD_DIR) + "/tests/validate_obs_case_" + name;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
  return path;
}

// validate_obs's exit code for `args`, or -1 if it did not exit normally.
int RunValidator(const std::string& args) {
  const std::string command =
      std::string(XOAR_VALIDATE_OBS) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int RunMode(const std::string& flag, const std::string& text) {
  return RunValidator(flag + " " + WriteCase("report.json", text));
}

// Replaces the first `from` (at or after `pos`) with `to`; the pattern must
// occur, or the case would silently test the untouched export.
std::string Replace(std::string text, const std::string& from,
                    const std::string& to, std::size_t pos = 0) {
  const std::size_t at = text.find(from, pos);
  EXPECT_NE(at, std::string::npos) << "pattern not found: " << from;
  if (at != std::string::npos) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  EXPECT_NE(text.find(from), std::string::npos) << "pattern not found: "
                                                << from;
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

// Sets the number that follows `"key": ` after the first `anchor`.
std::string SetAfter(std::string text, const std::string& anchor,
                     const std::string& key, const std::string& value) {
  const std::size_t at = text.find(anchor);
  EXPECT_NE(at, std::string::npos) << "anchor not found: " << anchor;
  if (at == std::string::npos) {
    return text;
  }
  const std::string field = "\"" + key + "\": ";
  const std::size_t begin = text.find(field, at);
  EXPECT_NE(begin, std::string::npos) << key << " not found after " << anchor;
  if (begin == std::string::npos) {
    return text;
  }
  const std::size_t start = begin + field.size();
  const std::size_t end = text.find_first_of(",}", start);
  text.replace(start, end - start, value);
  return text;
}

std::string MetricAnchor(const std::string& name) {
  return "{\"name\": \"" + name + "\"";
}

std::string SetMetric(const std::string& text, const std::string& name,
                      const std::string& value) {
  return SetAfter(text, MetricAnchor(name), "value", value);
}

// Renames benchmark `name`, so lookups by name miss it.
std::string DropMetric(const std::string& text, const std::string& name) {
  return Replace(text, MetricAnchor(name), MetricAnchor(name + "_dropped"));
}

// The line of top-level array `array` holding entry `index`.
std::size_t EntryStart(const std::string& text, const std::string& array,
                       int index) {
  std::size_t at = text.find("\"" + array + "\": [");
  EXPECT_NE(at, std::string::npos) << "array not found: " << array;
  for (int i = 0; i <= index && at != std::string::npos; ++i) {
    at = text.find("\n    {", at + 1);
  }
  return at == std::string::npos ? 0 : at;
}

std::string SetField(const std::string& text, const std::string& array,
                     int index, const std::string& key,
                     const std::string& value) {
  const std::size_t at = EntryStart(text, array, index);
  const std::string field = "\"" + key + "\": ";
  std::string out = text;
  const std::size_t begin = out.find(field, at);
  EXPECT_NE(begin, std::string::npos) << key << " not in " << array;
  if (begin == std::string::npos) {
    return out;
  }
  const std::size_t start = begin + field.size();
  std::size_t end = out.find_first_of(",}", start);
  if (out[start] == '"') {  // a string value: skip to its closing quote
    end = start + 1;
    while (out[end] != '"') {
      end += out[end] == '\\' ? 2 : 1;
    }
    ++end;
  }
  out.replace(start, end - start, value);
  return out;
}

std::string DropField(const std::string& text, const std::string& array,
                      int index, const std::string& key) {
  return Replace(text, "\"" + key + "\": ", "\"" + key + "_dropped\": ",
                 EntryStart(text, array, index));
}

std::string DropArray(const std::string& text, const std::string& array) {
  return Replace(text, "\"" + array + "\": [", "\"" + array + "_dropped\": [");
}

std::string EmptyArray(std::string text, const std::string& array) {
  const std::string open = "\"" + array + "\": [";
  const std::size_t begin = text.find(open);
  EXPECT_NE(begin, std::string::npos) << "array not found: " << array;
  if (begin == std::string::npos) {
    return text;
  }
  const std::size_t start = begin + open.size();
  const std::size_t end = text.find("\n  ]", start);
  text.erase(start, end - start);
  return text;
}

// One out-of-bounds value for a benchmark metric.
struct BadValue {
  const char* name;
  const char* value;
};

// Checks a single-file mode: the export passes as written, and every
// metric in `required` is rejected when dropped.
void ExpectRequired(const std::string& flag, const std::string& base,
                    const std::vector<const char*>& required) {
  ASSERT_EQ(RunMode(flag, base), 0) << flag << ": untouched export rejected";
  for (const char* name : required) {
    EXPECT_EQ(RunMode(flag, DropMetric(base, name)), 1)
        << flag << ": accepted with " << name << " dropped";
  }
}

void ExpectBadValues(const std::string& flag, const std::string& base,
                     const std::vector<BadValue>& bad) {
  for (const BadValue& b : bad) {
    EXPECT_EQ(RunMode(flag, SetMetric(base, b.name, b.value)), 1)
        << flag << ": accepted " << b.name << " = " << b.value;
  }
}

TEST(ValidateObsTest, MetricsAndTraceShape) {
  const std::string metrics = ReadExport("examples/quickstart_metrics.json");
  const std::string trace = ReadExport("examples/quickstart_trace.json");
  auto run = [](const std::string& m, const std::string& t) {
    return RunValidator(WriteCase("metrics.json", m) + " " +
                        WriteCase("trace.json", t));
  };
  ASSERT_EQ(run(metrics, trace), 0);

  const std::vector<std::string> bad_metrics = {
      Replace(metrics, "\"context\":", "\"contexts\":"),
      Replace(metrics, "\"executable\": \"quickstart\"", "\"executable\": 1"),
      Replace(metrics, "\"sim_time_ns\":", "\"sim_time\":"),
      DropArray(metrics, "benchmarks"),
      EmptyArray(metrics, "benchmarks"),
      Replace(metrics, "{\"name\": ", "{\"nome\": "),
      Replace(metrics, "\"run_type\": \"counter\"", "\"run_kind\": \"counter\""),
      Replace(metrics, "\"run_type\": \"counter\"", "\"run_type\": \"meter\""),
  };
  for (std::size_t i = 0; i < bad_metrics.size(); ++i) {
    EXPECT_EQ(run(bad_metrics[i], trace), 1) << "metrics case " << i;
  }

  std::string one_category = trace;
  for (const char* cat : {"hypercall", "evtchn", "grant", "xenstore",
                          "microreboot", "driver", "watchdog"}) {
    if (one_category.find(std::string("\"cat\": \"") + cat + "\"") !=
        std::string::npos) {
      one_category = ReplaceAll(one_category,
                                std::string("\"cat\": \"") + cat + "\"",
                                "\"cat\": \"boot\"");
    }
  }
  const std::vector<std::string> bad_traces = {
      DropArray(trace, "traceEvents"),
      Replace(trace, "{\"name\": ", "{\"nome\": "),
      Replace(trace, "\"ph\": \"X\"", "\"phase\": \"X\""),
      Replace(trace, "\"ph\": \"X\"", "\"ph\": \"B\""),
      Replace(trace, "\"pid\": 1", "\"pids\": 1"),
      SetAfter(trace, "\"ph\": \"X\"", "ts", "-1"),
      Replace(trace, "\"ph\": \"X\", \"ts\":", "\"ph\": \"X\", \"tz\":"),
      Replace(trace, "\"cat\": ", "\"kat\": "),
      SetAfter(trace, "\"ph\": \"X\"", "dur", "-1"),
      Replace(trace, "\"dur\":", "\"durs\":"),
      ReplaceAll(trace, "\"ph\": \"X\"", "\"ph\": \"i\""),
      one_category,
  };
  for (std::size_t i = 0; i < bad_traces.size(); ++i) {
    EXPECT_EQ(run(metrics, bad_traces[i]), 1) << "trace case " << i;
  }
}

TEST(ValidateObsTest, CampaignRulesRelationsAndFaultFamily) {
  const std::string base = ReadExport("bench/BENCH_fault_campaign.json");
  ExpectRequired(
      "--campaign", base,
      {"campaign.availability", "campaign.invariant_violations",
       "campaign.faults_injected", "campaign.absorbed_by_retry",
       "campaign.mean_recovery_ms", "campaign.probes_issued",
       "campaign.hangs_injected", "campaign.box_corrupts_injected",
       "campaign.boxes_rejected", "campaign.heartbeat_timeout_ms",
       "campaign.hang_detection_max_ms",
       "campaign.watchdog_hangs_detected",
       "campaign.watchdog_hangs_absorbed",
       "campaign.watchdog_deaths_detected",
       "campaign.watchdog_auto_restarts", "campaign.watchdog_quarantines"});
  ExpectBadValues(
      "--campaign", base,
      {{"campaign.availability", "1.5"},
       {"campaign.availability", "-0.5"},
       {"campaign.invariant_violations", "1"},
       {"campaign.faults_injected", "0"},
       {"campaign.absorbed_by_retry", "0"},
       {"campaign.mean_recovery_ms", "-1"},
       {"campaign.probes_issued", "0"},
       {"campaign.hangs_injected", "-1"},
       {"campaign.box_corrupts_injected", "-1"},
       {"campaign.boxes_rejected", "-1"},
       {"campaign.heartbeat_timeout_ms", "-1"},
       {"campaign.hang_detection_max_ms", "-1"},
       {"campaign.watchdog_hangs_detected", "-1"},
       {"campaign.watchdog_hangs_absorbed", "-1"},
       {"campaign.watchdog_deaths_detected", "-1"},
       {"campaign.watchdog_auto_restarts", "-1"},
       {"campaign.watchdog_quarantines", "-1"},
       // Relations: detected + absorbed == injected hangs, detection
       // latency <= heartbeat timeout, rejected == corrupted boxes.
       {"campaign.hangs_injected", "999"},
       {"campaign.hang_detection_max_ms", "1e9"},
       {"campaign.boxes_rejected", "999"}});

  // The fault.injected.* family: present, numeric, not all zero.
  EXPECT_EQ(RunMode("--campaign", ReplaceAll(base, "\"name\": \"fault.injected.",
                                             "\"name\": \"fault.dropped.")),
            1);
  std::string all_zero = base;
  for (std::size_t at = all_zero.find("\"name\": \"fault.injected.");
       at != std::string::npos;
       at = all_zero.find("\"name\": \"fault.injected.", at + 1)) {
    const std::size_t line_end = all_zero.find('\n', at);
    const std::string line = all_zero.substr(at, line_end - at);
    all_zero.replace(at, line.size(),
                     SetAfter(line, "\"name\"", "value", "0"));
  }
  EXPECT_EQ(RunMode("--campaign", all_zero), 1);
  EXPECT_EQ(RunMode("--campaign",
                    SetAfter(base, "\"name\": \"fault.injected.", "value",
                             "\"many\"")),
            1);
}

TEST(ValidateObsTest, SimCoreGaugesMustBePositive) {
  const std::vector<const char*> gauges = {
      "sim_core.schedule_fire.events_per_sec",
      "sim_core.schedule_fire.baseline_events_per_sec",
      "sim_core.schedule_fire.speedup",
      "sim_core.schedule_cancel.ops_per_sec",
      "sim_core.schedule_cancel.baseline_ops_per_sec",
      "sim_core.schedule_cancel.speedup",
      "sim_core.timer_churn.ops_per_sec",
      "sim_core.timer_churn.baseline_ops_per_sec",
      "sim_core.timer_churn.speedup",
      "sim_core.delay_mix.ops_per_sec",
      "sim_core.delay_mix.baseline_ops_per_sec",
      "sim_core.delay_mix.speedup",
      "sim_core.ring_drain.requests_per_sec",
      "sim_core.ring_drain.sim_events_per_request"};
  const std::string base = ReadExport("bench/BENCH_sim_core.json");
  ExpectRequired("--sim", base, gauges);
  std::vector<BadValue> bad;
  for (const char* name : gauges) {
    bad.push_back({name, "0"});  // the bound is strict: > 0
  }
  bad.push_back({"sim_core.ring_drain.sim_events_per_request", "12.5"});
  ExpectBadValues("--sim", base, bad);
}

TEST(ValidateObsTest, DensityRulesAndSweepRows) {
  const std::string base = ReadExport("bench/BENCH_density.json");
  ExpectRequired("--density", base,
                 {"density.sweep_points", "density.max_domains",
                  "density.total_created", "xs.shard.count",
                  "density.scan_free_create_path"});
  ExpectBadValues("--density", base,
                  {{"density.sweep_points", "0"},
                   {"density.max_domains", "0"},
                   {"density.total_created", "0"},
                   {"xs.shard.count", "0"},
                   {"density.scan_free_create_path", "0"},
                   {"density.scan_free_create_path", "2"}});

  const std::vector<std::string> bad = {
      DropArray(base, "sweep"),
      EmptyArray(base, "sweep"),
      SetField(base, "sweep", 0, "domains", "0"),
      SetField(base, "sweep", 0, "created", "0"),
      SetField(base, "sweep", 0, "shard_count", "0"),
      SetField(base, "sweep", 0, "create_ops_per_sec", "0"),
      SetField(base, "sweep", 0, "create_path_scans", "1"),
      SetField(base, "sweep", 0, "per_domain_control_bytes", "0"),
      // Domain targets strictly ascending; bytes/domain grows <= 10%.
      SetField(base, "sweep", 1, "domains", "1"),
      SetField(base, "sweep", 1, "per_domain_control_bytes", "1e15"),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(RunMode("--density", bad[i]), 1) << "sweep case " << i;
  }
  for (const char* field :
       {"domains", "created", "shard_count", "create_ops_per_sec",
        "create_path_scans", "per_domain_control_bytes"}) {
    EXPECT_EQ(RunMode("--density", DropField(base, "sweep", 0, field)), 1)
        << "accepted a sweep row without " << field;
  }
}

TEST(ValidateObsTest, ReplayRulesAndRelations) {
  const std::string base = ReadExport("tools/BENCH_replay.json");
  ExpectRequired(
      "--replay", base,
      {"replay.seed", "replay.records", "replay.journal_bytes",
       "replay.chain_verified", "replay.replay_divergences",
       "replay.replay_verified", "replay.diff_seed_b", "replay.diff_diverged",
       "replay.diff_index", "replay.perturb_index", "replay.perturb_caught",
       "replay.perturb_caught_index"});
  ExpectBadValues("--replay", base,
                  {{"replay.seed", "-1"},
                   {"replay.records", "0"},
                   {"replay.journal_bytes", "0"},
                   {"replay.chain_verified", "0"},
                   {"replay.chain_verified", "2"},
                   {"replay.replay_divergences", "1"},
                   {"replay.replay_verified", "0"},
                   {"replay.diff_seed_b", "-1"},
                   {"replay.diff_diverged", "0"},
                   {"replay.diff_diverged", "2"},
                   {"replay.diff_index", "-1"},
                   {"replay.perturb_index", "-1"},
                   {"replay.perturb_caught", "0"},
                   {"replay.perturb_caught", "2"},
                   {"replay.perturb_caught_index", "-1"},
                   // Relations: verified == records, caught where planted,
                   // diff divergence inside the journal.
                   {"replay.replay_verified", "1e12"},
                   {"replay.perturb_caught_index", "1e12"},
                   {"replay.diff_index", "1e15"}});
}

TEST(ValidateObsTest, FleetRulesRelationsAndWaveStepFamily) {
  const std::string base = ReadExport("bench/BENCH_fleet.json");
  ExpectRequired(
      "--fleet", base,
      {"fleet.seed", "fleet.hosts", "fleet.guests_placed",
       "fleet.invariant_violations", "fleet.admission.accepted",
       "fleet.admission.shed", "fleet.migrations.attempted",
       "fleet.migrations.completed", "fleet.evacuations.started",
       "fleet.evac.moved", "fleet.evac.failed",
       "fleet.faults.migration_stream_drops", "fleet.controller.supervised",
       "fleet.workload.p99_ms", "fleet.workload.p999_ms",
       "fleet.wave.clean.steps", "fleet.wave.clean.aborted",
       "fleet.wave.storm.aborted", "fleet.wave.storm.converged",
       "fleet.rebalance.spread_before", "fleet.rebalance.spread_after"});
  ExpectBadValues("--fleet", base,
                  {{"fleet.seed", "-1"},
                   {"fleet.hosts", "1"},
                   {"fleet.guests_placed", "0"},
                   {"fleet.invariant_violations", "1"},
                   {"fleet.admission.accepted", "0"},
                   {"fleet.admission.shed", "0"},
                   {"fleet.migrations.attempted", "0"},
                   {"fleet.migrations.completed", "0"},
                   {"fleet.evacuations.started", "0"},
                   {"fleet.evac.moved", "0"},
                   {"fleet.evac.failed", "1"},
                   {"fleet.faults.migration_stream_drops", "0"},
                   {"fleet.controller.supervised", "0"},
                   {"fleet.controller.supervised", "2"},
                   {"fleet.workload.p99_ms", "0"},
                   {"fleet.workload.p999_ms", "0"},
                   {"fleet.wave.clean.steps", "0"},
                   {"fleet.wave.clean.aborted", "1"},
                   {"fleet.wave.storm.aborted", "0"},
                   {"fleet.wave.storm.aborted", "2"},
                   {"fleet.wave.storm.converged", "0"},
                   {"fleet.wave.storm.converged", "2"},
                   {"fleet.rebalance.spread_before", "-1"},
                   {"fleet.rebalance.spread_after", "-1"},
                   // Relations: rebalance never widens the spread, p999 >=
                   // p99, completed <= attempted migrations.
                   {"fleet.rebalance.spread_after", "1e9"},
                   {"fleet.workload.p99_ms", "1e9"},
                   {"fleet.migrations.completed", "1e9"}});
  // The fleet.wave.*.step.* family must be present.
  EXPECT_EQ(RunMode("--fleet", ReplaceAll(base, ".step.", ".stage.")), 1);
}

// The findings array checks shared by --lint and --flow. The report must
// carry at least one suppressed finding (both tier-1 reports do).
void ExpectFindingsChecked(const std::string& flag, const std::string& prefix,
                           const std::string& base) {
  for (const std::string& total :
       {prefix + ".findings.total", prefix + ".suppressed.total",
        prefix + ".warnings.total"}) {
    EXPECT_EQ(RunMode(flag, DropMetric(base, total)), 1) << total;
    EXPECT_EQ(RunMode(flag, SetMetric(base, total, "99")), 1) << total;
  }
  const std::string suppressed =
      "\"suppressed\": true, \"warning\": false, \"justification\": ";
  ASSERT_NE(base.find(suppressed), std::string::npos)
      << flag << ": no suppressed finding to mutate";
  const std::vector<std::string> bad = {
      DropArray(base, "findings"),
      DropField(base, "findings", 0, "rule"),
      SetField(base, "findings", 0, "rule", "\"\""),
      DropField(base, "findings", 0, "file"),
      SetField(base, "findings", 0, "file", "\"\""),
      DropField(base, "findings", 0, "line"),
      SetField(base, "findings", 0, "line", "-1"),
      DropField(base, "findings", 0, "message"),
      SetField(base, "findings", 0, "message", "\"\""),
      DropField(base, "findings", 0, "suppressed"),
      SetField(base, "findings", 0, "suppressed", "1"),
      SetField(base, "findings", 0, "warning", "1"),
      // A suppressed finding needs a justification.
      Replace(base, suppressed,
              "\"suppressed\": true, \"warning\": false, \"reason\": "),
      Replace(base, suppressed + "\"",
              "\"suppressed\": true, \"warning\": false, "
              "\"justification\": \"\", \"was\": \""),
      // Re-classified findings no longer match the exported totals.
      Replace(base, suppressed,
              "\"suppressed\": false, \"warning\": true, \"justification\": "),
      Replace(base, suppressed,
              "\"suppressed\": false, \"warning\": false, "
              "\"justification\": "),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(RunMode(flag, bad[i]), 1) << flag << " findings case " << i;
  }
}

TEST(ValidateObsTest, LintSummaryAndFindings) {
  const std::string base = ReadExport("tools/xoar_lint_report.json");
  ExpectRequired("--lint", base, {"lint.files_scanned"});
  ExpectBadValues("--lint", base, {{"lint.files_scanned", "0"}});
  ExpectFindingsChecked("--lint", "lint", base);
}

TEST(ValidateObsTest, FlowSummaryFindingsAndCommGraph) {
  const std::string base = ReadExport("tools/xoar_flow_report.json");
  std::vector<const char*> required = {
      "flow.files_scanned", "flow.functions", "flow.call_edges",
      "flow.widened_functions"};
  std::vector<std::string> containment;
  for (const char* label : {"declared", "derived"}) {
    for (const char* field : {"nodes", "edges", "attack_surface",
                              "max_reach", "mean_reach_milli"}) {
      containment.push_back(std::string("flow.containment.") + label + "." +
                            field);
    }
  }
  for (const std::string& name : containment) {
    required.push_back(name.c_str());
  }
  ExpectRequired("--flow", base, required);
  ExpectBadValues("--flow", base,
                  {{"flow.files_scanned", "0"}, {"flow.functions", "0"}});

  // The bench timing gauge is optional, but positive when present.
  const std::string timing =
      "\"benchmarks\": [\n    {\"name\": \"lint_cost.full_tree_us\", "
      "\"run_type\": \"gauge\", \"value\": ";
  EXPECT_EQ(RunMode("--flow", Replace(base, "\"benchmarks\": [",
                                      timing + "7},")),
            0);
  EXPECT_EQ(RunMode("--flow", Replace(base, "\"benchmarks\": [",
                                      timing + "0},")),
            1);

  ExpectFindingsChecked("--flow", "flow", base);

  const std::vector<std::string> bad = {
      DropArray(base, "comm_graph"),
      DropField(base, "comm_graph", 0, "from"),
      SetField(base, "comm_graph", 0, "from", "\"\""),
      DropField(base, "comm_graph", 0, "to"),
      SetField(base, "comm_graph", 0, "to", "\"\""),
      DropField(base, "comm_graph", 0, "kind"),
      SetField(base, "comm_graph", 0, "kind", "\"\""),
      DropField(base, "comm_graph", 0, "witness_line"),
      SetField(base, "comm_graph", 0, "witness_line", "-1"),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(RunMode("--flow", bad[i]), 1) << "comm_graph case " << i;
  }
}

}  // namespace
