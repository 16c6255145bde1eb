// validate_obs — schema checks for the observability exports. Each mode is
// paired with the CTest that writes its file:
//
//   validate_obs <metrics.json> <trace.json>   examples/quickstart
//   validate_obs --campaign <report.json>      bench/fault_campaign
//   validate_obs --sim <report.json>           bench/micro_sim_core
//   validate_obs --density <report.json>       bench/ablation_density
//   validate_obs --replay <report.json>        tools/xoar_replay selftest
//   validate_obs --fleet <report.json>         bench/fleet_campaign
//   validate_obs --lint <report.json>          tools/xoar_lint
//   validate_obs --flow <report.json>          tools/xoar_flow, micro_lint
//
// Every report must first be a BENCH export: a "context" object with a
// string "executable" and a numeric "sim_time_ns", and a non-empty
// "benchmarks" array of named entries whose run_type is counter, gauge or
// histogram. A mode's table then names the metrics that must be present
// and in bounds, the relations between them, the metric families that must
// be non-empty, and the checks on each entry of its top-level arrays; the
// tables below say why each bound holds. The trace must be Chrome
// trace_event JSON with only X/i/M phases and at least 5 span categories.
//
// Exits 0 when valid, 1 with a message at the first violation, 2 on a
// usage error.
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/json.h"

namespace xoar {
namespace {

#define CHECK_OR_FAIL(cond, ...)                     \
  do {                                               \
    if (!(cond)) {                                   \
      std::fprintf(stderr, "%s: ", path.c_str());    \
      std::fprintf(stderr, __VA_ARGS__);             \
      std::fprintf(stderr, "\n");                    \
      return false;                                  \
    }                                                \
  } while (0)

constexpr double kInf = std::numeric_limits<double>::infinity();
// The least positive double: as a minimum it means "strictly above 0".
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

// A number that must lie in [min, max]: a benchmark's "value" in a mode's
// metric table, an entry's member in an array table.
struct Rule {
  const char* name;
  double min = 0;
  double max = kInf;
};

// a (+ b) op c over benchmark values, op one of "==", "<=", ">=".
struct Relation {
  const char* a;
  const char* b;  // nullptr: no second term
  const char* op;
  const char* c;
};

// Benchmarks whose name starts with `prefix` and contains `infix`: at
// least one must exist. With `positive_sum` each needs a numeric value and
// the values must not all be zero.
struct Family {
  const char* prefix;
  const char* infix;
  bool positive_sum;
};

// Checks on every entry of a top-level array.
struct ArrayCheck {
  const char* array;
  bool non_empty;
  std::vector<const char*> strings;  // must be non-empty strings
  std::vector<Rule> numbers;
};

using ExtraCheck = bool (*)(const std::string& path, const JsonValue& doc);

struct Mode {
  const char* flag;
  std::vector<Rule> required = {};  // present, numeric and in bounds
  std::vector<Rule> optional = {};  // in bounds when present and numeric
  std::vector<Relation> relations = {};
  std::vector<Family> families = {};
  std::vector<ArrayCheck> arrays = {};
  ExtraCheck extra = nullptr;  // what no table row expresses
};

// The "value" of the first benchmark named `name`; nullptr when absent.
// Only called once CheckBenchShape has passed.
const JsonValue* Metric(const JsonValue& doc, std::string_view name) {
  for (const JsonValue& entry : doc.Find("benchmarks")->array()) {
    if (entry.Find("name")->string() == name) {
      return entry.Find("value");
    }
  }
  return nullptr;
}

// A relation operand: a missing or non-numeric metric counts as 0.
double Value(const JsonValue& doc, const char* name) {
  const JsonValue* value = name == nullptr ? nullptr : Metric(doc, name);
  return value != nullptr && value->is_number() ? value->number() : 0;
}

bool CheckNumber(const std::string& path, const char* where, const Rule& rule,
                 const JsonValue* value) {
  CHECK_OR_FAIL(value != nullptr && value->is_number(),
                "%s: missing numeric \"%s\"", where, rule.name);
  const double v = value->number();
  const bool strict = rule.min == kPositive;
  CHECK_OR_FAIL(v >= rule.min && v <= rule.max,
                "%s: %s = %g outside %s%g, %g]", where, rule.name, v,
                strict ? "(" : "[", strict ? 0.0 : rule.min, rule.max);
  return true;
}

bool CheckBenchShape(const std::string& path, const JsonValue& doc) {
  CHECK_OR_FAIL(doc.is_object(), "top level is not an object");
  const JsonValue* context = doc.Find("context");
  CHECK_OR_FAIL(context != nullptr && context->is_object(),
                "missing \"context\" object");
  const JsonValue* executable = context->Find("executable");
  CHECK_OR_FAIL(executable != nullptr && executable->is_string(),
                "context.executable missing or not a string");
  const JsonValue* sim_time = context->Find("sim_time_ns");
  CHECK_OR_FAIL(sim_time != nullptr && sim_time->is_number(),
                "context.sim_time_ns missing or not a number");
  const JsonValue* benchmarks = doc.Find("benchmarks");
  CHECK_OR_FAIL(benchmarks != nullptr && benchmarks->is_array(),
                "missing \"benchmarks\" array");
  CHECK_OR_FAIL(!benchmarks->array().empty(),
                "\"benchmarks\" array is empty — nothing was recorded");
  for (const JsonValue& entry : benchmarks->array()) {
    CHECK_OR_FAIL(entry.is_object(), "benchmark entry is not an object");
    const JsonValue* name = entry.Find("name");
    CHECK_OR_FAIL(name != nullptr && name->is_string() &&
                      !name->string().empty(),
                  "benchmark entry without a \"name\"");
    const JsonValue* run_type = entry.Find("run_type");
    CHECK_OR_FAIL(run_type != nullptr && run_type->is_string(),
                  "%s: missing \"run_type\"", name->string().c_str());
    const std::string& rt = run_type->string();
    CHECK_OR_FAIL(rt == "counter" || rt == "gauge" || rt == "histogram",
                  "%s: unknown run_type \"%s\"", name->string().c_str(),
                  rt.c_str());
  }
  return true;
}

bool CheckMode(const std::string& path, const JsonValue& doc,
               const Mode& mode) {
  for (const Rule& rule : mode.required) {
    if (!CheckNumber(path, "benchmarks", rule, Metric(doc, rule.name))) {
      return false;
    }
  }
  for (const Rule& rule : mode.optional) {
    const JsonValue* value = Metric(doc, rule.name);
    if (value != nullptr && value->is_number() &&
        !CheckNumber(path, "benchmarks", rule, value)) {
      return false;
    }
  }
  for (const Relation& r : mode.relations) {
    const double lhs = Value(doc, r.a) + Value(doc, r.b);
    const double rhs = Value(doc, r.c);
    const std::string_view op = r.op;
    const bool holds =
        op == "==" ? lhs == rhs : op == "<=" ? lhs <= rhs : lhs >= rhs;
    CHECK_OR_FAIL(holds, "%s%s%s %s %s fails: %g vs %g", r.a,
                  r.b == nullptr ? "" : " + ", r.b == nullptr ? "" : r.b,
                  r.op, r.c, lhs, rhs);
  }
  for (const Family& family : mode.families) {
    std::size_t members = 0;
    double sum = 0;
    for (const JsonValue& entry : doc.Find("benchmarks")->array()) {
      const std::string& name = entry.Find("name")->string();
      if (name.rfind(family.prefix, 0) != 0 ||
          name.find(family.infix) == std::string::npos) {
        continue;
      }
      ++members;
      if (family.positive_sum) {
        const JsonValue* value = entry.Find("value");
        CHECK_OR_FAIL(value != nullptr && value->is_number(),
                      "%s has no numeric \"value\"", name.c_str());
        sum += value->number();
      }
    }
    CHECK_OR_FAIL(members > 0, "no %s*%s metrics exported", family.prefix,
                  family.infix);
    CHECK_OR_FAIL(!family.positive_sum || sum > 0,
                  "every %s* metric is zero", family.prefix);
  }
  for (const ArrayCheck& check : mode.arrays) {
    const JsonValue* array = doc.Find(check.array);
    CHECK_OR_FAIL(array != nullptr && array->is_array(),
                  "missing \"%s\" array", check.array);
    CHECK_OR_FAIL(!check.non_empty || !array->array().empty(),
                  "\"%s\" array is empty", check.array);
    for (const JsonValue& entry : array->array()) {
      CHECK_OR_FAIL(entry.is_object(), "%s entry is not an object",
                    check.array);
      for (const char* key : check.strings) {
        const JsonValue* value = entry.Find(key);
        CHECK_OR_FAIL(value != nullptr && value->is_string() &&
                          !value->string().empty(),
                      "%s entry without \"%s\"", check.array, key);
      }
      for (const Rule& number : check.numbers) {
        if (!CheckNumber(path, check.array, number,
                         entry.Find(number.name))) {
          return false;
        }
      }
    }
  }
  return mode.extra == nullptr || mode.extra(path, doc);
}

// The findings array of a lint or flow report: "suppressed" is a bool,
// "warning" an optional bool (absent means blocking), a suppressed finding
// carries a justification, and the blocking, suppressed and warning counts
// equal the exported <prefix>.findings/suppressed/warnings.total.
bool CheckFindings(const std::string& path, const JsonValue& doc,
                   const std::string& prefix) {
  double blocking = 0;
  double suppressed = 0;
  double warnings = 0;
  for (const JsonValue& finding : doc.Find("findings")->array()) {
    const char* file = finding.Find("file")->string().c_str();
    const JsonValue* is_suppressed = finding.Find("suppressed");
    CHECK_OR_FAIL(is_suppressed != nullptr && is_suppressed->is_bool(),
                  "%s: missing \"suppressed\" bool", file);
    const JsonValue* is_warning = finding.Find("warning");
    CHECK_OR_FAIL(is_warning == nullptr || is_warning->is_bool(),
                  "%s: \"warning\" is not a bool", file);
    if (is_suppressed->bool_value()) {
      ++suppressed;
      const JsonValue* justification = finding.Find("justification");
      CHECK_OR_FAIL(justification != nullptr && justification->is_string() &&
                        !justification->string().empty(),
                    "%s: suppressed finding without a justification", file);
    } else if (is_warning != nullptr && is_warning->bool_value()) {
      ++warnings;
    } else {
      ++blocking;
    }
  }
  const struct {
    const char* kind;
    double count;
  } tallies[] = {{".findings.total", blocking},
                 {".suppressed.total", suppressed},
                 {".warnings.total", warnings}};
  for (const auto& tally : tallies) {
    const std::string total = prefix + tally.kind;
    CHECK_OR_FAIL(tally.count == Value(doc, total.c_str()),
                  "%g findings counted but %s = %g", tally.count,
                  total.c_str(), Value(doc, total.c_str()));
  }
  return true;
}

// Density sweep points ascend strictly in domain target, and per-domain
// control-plane bytes grow at most 10% per step (§2.3.1 via SCALING.md).
bool CheckSweepTrend(const std::string& path, const JsonValue& doc) {
  const JsonValue* prev = nullptr;
  for (const JsonValue& point : doc.Find("sweep")->array()) {
    if (prev != nullptr) {
      const double domains = point.Find("domains")->number();
      const double bytes = point.Find("per_domain_control_bytes")->number();
      const double prev_bytes =
          prev->Find("per_domain_control_bytes")->number();
      CHECK_OR_FAIL(domains > prev->Find("domains")->number(),
                    "sweep domains not strictly ascending at %g", domains);
      CHECK_OR_FAIL(bytes <= prev_bytes * 1.10,
                    "per-domain control bytes grew %g -> %g (> 10%%)",
                    prev_bytes, bytes);
    }
    prev = &point;
  }
  return true;
}

const std::vector<Mode>& Modes() {
  static const std::vector<Mode> modes = {
      // Fault campaign (RESILIENCE.md). Supervision counts may be zero for
      // a campaign without hangs or corruption, but must be exported.
      {.flag = "--campaign",
       .required = {{"campaign.availability", 0, 1},
                    {"campaign.invariant_violations", 0, 0},
                    {"campaign.faults_injected", 1},
                    {"campaign.absorbed_by_retry", 1},
                    {"campaign.mean_recovery_ms"},
                    {"campaign.probes_issued", 1},
                    {"campaign.hangs_injected"},
                    {"campaign.box_corrupts_injected"},
                    {"campaign.boxes_rejected"},
                    {"campaign.heartbeat_timeout_ms"},
                    {"campaign.hang_detection_max_ms"},
                    {"campaign.watchdog_hangs_detected"},
                    {"campaign.watchdog_hangs_absorbed"},
                    {"campaign.watchdog_deaths_detected"},
                    {"campaign.watchdog_auto_restarts"},
                    {"campaign.watchdog_quarantines"}},
       // Every hang is detected or absorbed, detection beats the
       // heartbeat timeout, and every corrupted box is rejected.
       .relations = {{"campaign.watchdog_hangs_detected",
                      "campaign.watchdog_hangs_absorbed", "==",
                      "campaign.hangs_injected"},
                     {"campaign.hang_detection_max_ms", nullptr, "<=",
                      "campaign.heartbeat_timeout_ms"},
                     {"campaign.boxes_rejected", nullptr, "==",
                      "campaign.box_corrupts_injected"}},
       // A campaign whose per-type injection counters are all zero
       // exercised nothing.
       .families = {{"fault.injected.", "", true}}},
      // Simulator core (DESIGN.md §5f). Wall-clock rates and speedups vary
      // with the host and the iteration count, so they need only be
      // positive; the committed full run is the speedup evidence. Events
      // per block request is simulator-deterministic: the batched drain
      // stays under 12 even with a 16-deep pipeline of 4 KiB writes.
      {.flag = "--sim",
       .required = {{"sim_core.schedule_fire.events_per_sec", kPositive},
                    {"sim_core.schedule_fire.baseline_events_per_sec",
                     kPositive},
                    {"sim_core.schedule_fire.speedup", kPositive},
                    {"sim_core.schedule_cancel.ops_per_sec", kPositive},
                    {"sim_core.schedule_cancel.baseline_ops_per_sec",
                     kPositive},
                    {"sim_core.schedule_cancel.speedup", kPositive},
                    {"sim_core.timer_churn.ops_per_sec", kPositive},
                    {"sim_core.timer_churn.baseline_ops_per_sec", kPositive},
                    {"sim_core.timer_churn.speedup", kPositive},
                    {"sim_core.ring_drain.requests_per_sec", kPositive},
                    {"sim_core.ring_drain.sim_events_per_request", kPositive,
                     12}}},
      // Density trajectory (SCALING.md): a scan-free create path and a
      // well-formed sweep; create_ops_per_sec is wall-clock.
      {.flag = "--density",
       .required = {{"density.sweep_points", 1},
                    {"density.max_domains", 1},
                    {"density.total_created", 1},
                    {"xs.shard.count", 1},
                    {"density.scan_free_create_path", 1, 1}},
       .arrays = {{"sweep",
                   true,
                   {},
                   {{"domains", 1},
                    {"created", 1},
                    {"shard_count", 1},
                    {"create_ops_per_sec", kPositive},
                    {"create_path_scans", 0, 0},
                    {"per_domain_control_bytes", kPositive}}}},
       .extra = CheckSweepTrend},
      // Record/replay selftest (DEBUGGING.md): the chain verified, the
      // replay matched every record, the two-seed diff diverged inside the
      // journal, and the planted perturbation was caught where planted.
      {.flag = "--replay",
       .required = {{"replay.seed"},
                    {"replay.records", 1},
                    {"replay.journal_bytes", 1},
                    {"replay.chain_verified", 1, 1},
                    {"replay.replay_divergences", 0, 0},
                    {"replay.replay_verified", 1},
                    {"replay.diff_seed_b"},
                    {"replay.diff_diverged", 1, 1},
                    {"replay.diff_index"},
                    {"replay.perturb_index"},
                    {"replay.perturb_caught", 1, 1},
                    {"replay.perturb_caught_index"}},
       .relations = {{"replay.replay_verified", nullptr, "==",
                      "replay.records"},
                     {"replay.perturb_caught_index", nullptr, "==",
                      "replay.perturb_index"},
                     {"replay.diff_index", nullptr, "<=", "replay.records"}}},
      // Fleet campaign (RESILIENCE.md "Fleet"): the whale probe sheds, the
      // clean wave completes, the storm wave trips its health gate and
      // converges, and rebalancing never widens the load spread.
      {.flag = "--fleet",
       .required = {{"fleet.seed"},
                    {"fleet.hosts", 2},
                    {"fleet.guests_placed", 1},
                    {"fleet.invariant_violations", 0, 0},
                    {"fleet.admission.accepted", 1},
                    {"fleet.admission.shed", 1},
                    {"fleet.migrations.attempted", 1},
                    {"fleet.migrations.completed", 1},
                    {"fleet.evacuations.started", 1},
                    {"fleet.evac.moved", 1},
                    {"fleet.evac.failed", 0, 0},
                    {"fleet.faults.migration_stream_drops", 1},
                    {"fleet.controller.supervised", 1, 1},
                    {"fleet.workload.p99_ms", 0.001},
                    {"fleet.workload.p999_ms", 0.001},
                    {"fleet.wave.clean.steps", 1},
                    {"fleet.wave.clean.aborted", 0, 0},
                    {"fleet.wave.storm.aborted", 1, 1},
                    {"fleet.wave.storm.converged", 1, 1},
                    {"fleet.rebalance.spread_before"},
                    {"fleet.rebalance.spread_after"}},
       .relations = {{"fleet.rebalance.spread_after", nullptr, "<=",
                      "fleet.rebalance.spread_before"},
                     {"fleet.workload.p999_ms", nullptr, ">=",
                      "fleet.workload.p99_ms"},
                     {"fleet.migrations.completed", nullptr, "<=",
                      "fleet.migrations.attempted"}},
       .families = {{"fleet.wave.", ".step.", false}}},
      // xoar_lint report (ANALYSIS.md): the scan saw sources, and every
      // finding is well-formed and counted in the totals.
      {.flag = "--lint",
       .required = {{"lint.files_scanned", kPositive},
                    {"lint.findings.total", -kInf},
                    {"lint.suppressed.total", -kInf},
                    {"lint.warnings.total", -kInf}},
       .arrays = {{"findings",
                   false,
                   {"rule", "file", "message"},
                   {{"line"}}}},
       .extra = [](const std::string& path, const JsonValue& doc) {
         return CheckFindings(path, doc, "lint");
       }},
      // xoar_flow report (ANALYSIS.md "Whole-program flow analysis"): a
      // non-trivial call graph, both containment recomputations side by
      // side, the derived communication graph, and the findings as for
      // --lint. Only bench/micro_lint writes the timing gauge.
      {.flag = "--flow",
       .required = {{"flow.files_scanned", kPositive},
                    {"flow.functions", kPositive},
                    {"flow.call_edges", -kInf},
                    {"flow.widened_functions", -kInf},
                    {"flow.containment.declared.nodes", -kInf},
                    {"flow.containment.declared.edges", -kInf},
                    {"flow.containment.declared.attack_surface", -kInf},
                    {"flow.containment.declared.max_reach", -kInf},
                    {"flow.containment.declared.mean_reach_milli", -kInf},
                    {"flow.containment.derived.nodes", -kInf},
                    {"flow.containment.derived.edges", -kInf},
                    {"flow.containment.derived.attack_surface", -kInf},
                    {"flow.containment.derived.max_reach", -kInf},
                    {"flow.containment.derived.mean_reach_milli", -kInf},
                    {"flow.findings.total", -kInf},
                    {"flow.suppressed.total", -kInf},
                    {"flow.warnings.total", -kInf}},
       .optional = {{"lint_cost.full_tree_us", kPositive}},
       .arrays = {{"findings",
                   false,
                   {"rule", "file", "message"},
                   {{"line"}}},
                  {"comm_graph",
                   false,
                   {"from", "to", "kind"},
                   {{"witness_line"}}}},
       .extra = [](const std::string& path, const JsonValue& doc) {
         return CheckFindings(path, doc, "flow");
       }},
  };
  return modes;
}

bool ValidateReport(const std::string& path, const Mode* mode) {
  StatusOr<JsonValue> doc = ParseJsonFile(path);
  CHECK_OR_FAIL(doc.ok(), "parse failed: %s", doc.status().ToString().c_str());
  if (!CheckBenchShape(path, *doc) ||
      (mode != nullptr && !CheckMode(path, *doc, *mode))) {
    return false;
  }
  std::printf("%s: %s OK (%zu metrics)\n", path.c_str(),
              mode == nullptr ? "metrics" : mode->flag + 2,
              doc->Find("benchmarks")->array().size());
  return true;
}

bool ValidateTrace(const std::string& path) {
  StatusOr<JsonValue> doc = ParseJsonFile(path);
  CHECK_OR_FAIL(doc.ok(), "parse failed: %s", doc.status().ToString().c_str());
  CHECK_OR_FAIL(doc->is_object(), "top level is not an object");
  const JsonValue* events = doc->Find("traceEvents");
  CHECK_OR_FAIL(events != nullptr && events->is_array(),
                "missing \"traceEvents\" array");

  std::set<std::string> span_categories;
  std::size_t spans = 0;
  for (const JsonValue& event : events->array()) {
    CHECK_OR_FAIL(event.is_object(), "trace event is not an object");
    const JsonValue* name = event.Find("name");
    CHECK_OR_FAIL(name != nullptr && name->is_string(),
                  "trace event without a \"name\"");
    const char* n = name->string().c_str();
    const JsonValue* ph = event.Find("ph");
    CHECK_OR_FAIL(ph != nullptr && ph->is_string(),
                  "event \"%s\": missing \"ph\"", n);
    const std::string& phase = ph->string();
    CHECK_OR_FAIL(phase == "X" || phase == "i" || phase == "M",
                  "event \"%s\": unsupported phase \"%s\"", n, phase.c_str());
    const JsonValue* pid = event.Find("pid");
    CHECK_OR_FAIL(pid != nullptr && pid->is_number(),
                  "event \"%s\": missing \"pid\"", n);
    if (phase == "M") {
      continue;  // metadata records carry "args", not timestamps
    }
    const JsonValue* ts = event.Find("ts");
    CHECK_OR_FAIL(ts != nullptr && ts->is_number() && ts->number() >= 0,
                  "event \"%s\": missing or negative \"ts\"", n);
    const JsonValue* cat = event.Find("cat");
    CHECK_OR_FAIL(cat != nullptr && cat->is_string(),
                  "event \"%s\": missing \"cat\"", n);
    if (phase == "X") {
      const JsonValue* dur = event.Find("dur");
      CHECK_OR_FAIL(dur != nullptr && dur->is_number() && dur->number() >= 0,
                    "span \"%s\": missing or negative \"dur\"", n);
      ++spans;
      span_categories.insert(cat->string());
    }
  }
  CHECK_OR_FAIL(spans > 0, "no \"X\" span events recorded");
  CHECK_OR_FAIL(span_categories.size() >= 5,
                "only %zu distinct span categories (need >= 5)",
                span_categories.size());
  std::printf("%s: OK (%zu events, %zu spans, %zu span categories)\n",
              path.c_str(), events->array().size(), spans,
              span_categories.size());
  return true;
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <metrics.json> <trace.json>\n", argv[0]);
    for (const xoar::Mode& mode : xoar::Modes()) {
      std::fprintf(stderr, "       %s %s <report.json>\n", argv[0],
                   mode.flag);
    }
    return 2;
  }
  for (const xoar::Mode& mode : xoar::Modes()) {
    if (std::string_view(argv[1]) == mode.flag) {
      return xoar::ValidateReport(argv[2], &mode) ? 0 : 1;
    }
  }
  return xoar::ValidateReport(argv[1], nullptr) &&
                 xoar::ValidateTrace(argv[2])
             ? 0
             : 1;
}
