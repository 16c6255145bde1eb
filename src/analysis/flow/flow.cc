#include "src/analysis/flow/flow.h"

#include <algorithm>
#include <set>

#include "src/base/json.h"

namespace xoar {
namespace analysis {
namespace flow {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

FlowConfig DefaultFlowConfig() {
  FlowConfig config;

  // Code-level entry surface per shard (DESIGN.md §3): requests from other
  // shards or guests arrive as calls on these classes. MonolithicPlatform
  // is deliberately absent — it models the stock-Dom0 baseline, not a
  // shard. Guest frontends are modeled so guest-side closures exist and
  // cross-shard calls INTO frontends derive edges instead of leaking
  // backend privileges into the guest row.
  config.entries = {
      {"Bootstrapper", {"XoarPlatform"}},
      {"Builder", {"Builder"}},
      {"Toolstack", {"Toolstack"}},
      {"PCIBack", {"PciBackService"}},
      {"NetBack", {"NetBack"}},
      {"BlkBack", {"BlkBack"}},
      {"Console Manager", {"ConsoleBackend"}},
      {"XenStore-Logic", {"XenStoreService"}},
      {"XenStore-State", {"XsStore", "XsShardedStore"}},
      {"QemuVM", {"DeviceEmulator"}},
      {"Guest", {"NetFront", "BlkFront"}},
  };

  // Fig 3.1 rows. The first five mirror the lexical rule's grant table
  // (rules.cc DefaultConfig — kept textually in sync, and the WILL_FAIL
  // fixtures catch drift in either direction); QemuVM's per-guest
  // foreign-map privilege is §5.6 (DMA on behalf of its one guest). Every
  // other shard holds NO privileged hypercalls: the device paths run
  // entirely on the unprivileged class (event channels, grant tables).
  config.privileges = {
      {"Bootstrapper", /*all_privileges=*/true, {}},
      {"Builder",
       false,
       {"kDomctlCreate", "kDomctlDestroy", "kDomctlPause", "kDomctlUnpause",
        "kForeignMemoryMap", "kDomctlSetPrivileges", "kDomctlDelegate",
        "kSnapshotOp", "kSetupGuestRings"}},
      {"PCIBack",
       false,
       {"kDomctlSetPrivileges", "kPhysdevOp", "kPciConfigOp",
        "kDomctlDestroy"}},
      {"Toolstack", false, {"kDomctlPause", "kDomctlUnpause", "kDomctlDestroy"}},
      {"XenStore-State", false, {}},
      {"QemuVM", false, {"kForeignMemoryMap"}},
      {"NetBack", false, {}},
      {"BlkBack", false, {}},
      {"Console Manager", false, {}},
      {"XenStore-Logic", false, {}},
      {"Guest", false, {}},
  };

  // The declared shard communication DAG (PAPER.md Fig 3): control-plane
  // RPC down the management chain, XenStore as the rendezvous bus, and
  // device/builder channels into guest memory. DiffCommGraph holds the
  // implementation to exactly this list.
  config.declared_comm = {
      // Bootstrapper provisions every shard (and seeds the sharded
      // XenStore-State with its manager domain) before handing control to
      // the toolstack.
      {"Bootstrapper", "Builder", "rpc"},
      {"Bootstrapper", "Toolstack", "rpc"},
      {"Bootstrapper", "PCIBack", "rpc"},
      {"Bootstrapper", "NetBack", "rpc"},
      {"Bootstrapper", "BlkBack", "rpc"},
      {"Bootstrapper", "Console Manager", "rpc"},
      {"Bootstrapper", "QemuVM", "rpc"},
      {"Bootstrapper", "XenStore-Logic", "xenstore"},
      {"Bootstrapper", "XenStore-State", "xenstore"},
      {"Bootstrapper", "Guest", "grant"},
      // Management chain: the toolstack drives the builder and the device
      // backends, and (in-simulator) pokes guest frontends to connect —
      // the stand-in for the guest booting and probing its devices.
      {"Toolstack", "Builder", "rpc"},
      {"Toolstack", "NetBack", "rpc"},
      {"Toolstack", "BlkBack", "rpc"},
      {"Toolstack", "Guest", "rpc"},
      {"Toolstack", "XenStore-Logic", "xenstore"},
      // VM building: memory population plus console wiring (§5.4).
      {"Builder", "XenStore-Logic", "xenstore"},
      {"Builder", "Console Manager", "rpc"},
      {"Builder", "Guest", "map"},
      // XenStore: logic fronts the restartable state shards; rings into
      // guests use grants (Xoar mode) or the §4.4 stock foreign map.
      {"XenStore-Logic", "XenStore-State", "xenstore"},
      {"XenStore-Logic", "Guest", "evtchn"},
      {"XenStore-Logic", "Guest", "grant"},
      {"XenStore-Logic", "Guest", "map"},
      // Device backends: grant-mapped rings + event-channel signalling.
      {"NetBack", "XenStore-Logic", "xenstore"},
      {"NetBack", "Guest", "evtchn"},
      {"NetBack", "Guest", "grant"},
      {"BlkBack", "XenStore-Logic", "xenstore"},
      {"BlkBack", "Guest", "evtchn"},
      {"BlkBack", "Guest", "grant"},
      {"Console Manager", "Guest", "evtchn"},
      {"Console Manager", "Guest", "grant"},
      {"Console Manager", "Guest", "map"},
      // PCIBack assigns hardware capabilities to its guest (§5.8); QemuVM
      // maps its one guest's memory for emulated DMA (§5.6).
      {"PCIBack", "Guest", "grant"},
      {"QemuVM", "Guest", "map"},
      {"Guest", "XenStore-Logic", "xenstore"},
  };

  // Deterministic-output sinks for the taint rule (DESIGN.md §5c): the
  // replay journal, the audit log, and the report writer every byte-stable
  // JSON export goes through.
  config.sinks = {
      {"Journal", "Append", "journal"},
      {"AuditLog", "Record", "audit"},
      {"JsonReport", "Add", "bench export"},
  };
  return config;
}

std::vector<std::string> FlowSuppressibleRules() {
  return {"comm_flow", "nondet_flow", "privilege_flow"};
}

FlowResult RunFlow(const std::vector<SourceFile>& files,
                   const FlowConfig& config) {
  FlowResult result;
  result.files_scanned = files.size();

  const CallGraph graph = BuildCallGraph(files);
  result.functions = graph.functions.size();
  result.call_edges = graph.edge_count;
  result.widened_functions = graph.widened_functions;

  std::set<std::string> unprivileged;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, config.hypercall_header_suffix)) {
      unprivileged = ExtractUnprivilegedHypercallOps(file);
      break;
    }
  }

  const std::vector<std::vector<OpMention>> direct_ops =
      CollectDirectOps(files, graph);
  const std::vector<ShardClosure> closures =
      TraverseShards(graph, config.entries);

  std::vector<Finding> findings = CheckPrivilegeFlow(
      graph, closures, direct_ops, config.privileges, unprivileged);

  result.derived_comm = DeriveCommGraph(graph, closures, config.entries);
  std::vector<Finding> comm = DiffCommGraph(
      graph, result.derived_comm, config.declared_comm, config.entries,
      config.strict);
  findings.insert(findings.end(), std::make_move_iterator(comm.begin()),
                  std::make_move_iterator(comm.end()));

  std::vector<Finding> taint = CheckNondetFlow(files, graph, config.sinks);
  findings.insert(findings.end(), std::make_move_iterator(taint.begin()),
                  std::make_move_iterator(taint.end()));

  ApplyToolSuppressions(files, "flow", FlowSuppressibleRules(), config.strict,
                        &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  result.findings = std::move(findings);
  return result;
}

std::string FormatFlowJson(
    const FlowResult& result, const LintSummary& summary,
    const std::vector<GraphStats>& containment,
    const std::vector<std::pair<std::string, std::size_t>>& extra_gauges) {
  JsonReport report("xoar_flow", {"findings", "comm_graph"});
  report.AddMetric("flow.files_scanned", "gauge", result.files_scanned);
  report.AddMetric("flow.functions", "gauge", result.functions);
  report.AddMetric("flow.call_edges", "gauge", result.call_edges);
  report.AddMetric("flow.widened_functions", "gauge",
                   result.widened_functions);
  report.AddMetric("flow.comm.derived_edges", "gauge",
                   result.derived_comm.size());
  for (const GraphStats& stats : containment) {
    const std::string prefix = "flow.containment." + stats.label;
    report.AddMetric(prefix + ".nodes", "gauge", stats.nodes);
    report.AddMetric(prefix + ".edges", "gauge", stats.edges);
    report.AddMetric(prefix + ".attack_surface", "gauge",
                     stats.attack_surface);
    report.AddMetric(prefix + ".max_reach", "gauge", stats.max_reach);
    report.AddMetric(prefix + ".mean_reach_milli", "gauge",
                     stats.mean_reach_milli);
  }
  for (const auto& [name, value] : extra_gauges) {
    report.AddMetric(name, "gauge", value);
  }
  AddFindings(&report, "flow", FlowSuppressibleRules(), result.findings,
              summary);
  for (const CommEdge& e : result.derived_comm) {
    report.AddRow("comm_graph", JsonObject()
                                    .Str("from", e.from)
                                    .Str("to", e.to)
                                    .Str("kind", e.kind)
                                    .Str("witness_file", e.witness_file)
                                    .Num("witness_line", e.witness_line)
                                    .Str("detail", e.detail));
  }
  return report.ToString();
}

}  // namespace flow
}  // namespace analysis
}  // namespace xoar
