// Static-analysis cost bench (ANALYSIS.md "Whole-program flow analysis"):
// times the full lexical lint pass and the whole-program flow analysis
// over the real tree, and writes the committed BENCH_analysis.json — the
// xoar_flow report (findings, derived communication graph, side-by-side
// declared/derived containment metrics) plus the lint_cost.* timing
// gauges. The analysis content of the report is byte-stable — this bench
// proves it on every run by executing the whole lint+flow pass TWICE and
// byte-comparing the timing-free reports before writing anything (any
// divergence is a hard exit-2 failure). The timing gauges are the one
// host-dependent field, which is why the BENCH writer lives in bench/
// (determinism-exempt) and the CTest-run xoar_flow report omits them.
//
//   micro_lint --root <repo> [--out BENCH_analysis.json]
//
// Exits 1 when either pass reports a blocking finding, so a regression
// cannot hide behind the bench.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/flow/flow.h"
#include "src/analysis/report.h"
#include "src/analysis/rules.h"
#include "src/analysis/source_tree.h"
#include "src/base/json.h"
#include "src/security/interface_graph.h"

namespace xoar {
namespace {

using Clock = std::chrono::steady_clock;

std::size_t ElapsedUs(Clock::time_point start) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start)
                      .count();
  return us > 0 ? static_cast<std::size_t>(us) : 1;  // gauges must be > 0
}

analysis::flow::GraphStats Containment(
    const std::string& label,
    const std::vector<security::InterfaceEdge>& edges) {
  const security::InterfaceGraphStats stats =
      security::AnalyzeInterfaceGraph(edges, "Guest");
  return {label,          stats.nodes,     stats.edges,
          stats.attack_surface, stats.max_reach, stats.mean_reach_milli};
}

struct PassResult {
  std::vector<analysis::Finding> lint_findings;
  analysis::flow::FlowResult flow;
  analysis::LintSummary summary;
  std::string stable_json;  // report without timing gauges
  std::size_t lint_us = 0;
  std::size_t flow_us = 0;
  std::size_t total_us = 0;
};

PassResult RunPass(const std::vector<analysis::SourceFile>& files) {
  PassResult pass;
  const Clock::time_point total_start = Clock::now();
  const Clock::time_point lint_start = Clock::now();
  pass.lint_findings = analysis::RunLint(files, analysis::DefaultConfig());
  pass.lint_us = ElapsedUs(lint_start);

  const Clock::time_point flow_start = Clock::now();
  const analysis::flow::FlowConfig config =
      analysis::flow::DefaultFlowConfig();
  pass.flow = analysis::flow::RunFlow(files, config);
  pass.flow_us = ElapsedUs(flow_start);
  pass.total_us = ElapsedUs(total_start);

  std::vector<security::InterfaceEdge> declared;
  for (const analysis::flow::DeclaredEdge& edge : config.declared_comm) {
    declared.push_back({edge.from, edge.to, edge.kind});
  }
  std::vector<security::InterfaceEdge> derived;
  for (const analysis::flow::CommEdge& edge : pass.flow.derived_comm) {
    derived.push_back({edge.from, edge.to, edge.kind});
  }

  pass.summary = analysis::Summarize(pass.flow.findings, files.size());
  pass.stable_json = analysis::flow::FormatFlowJson(
      pass.flow, pass.summary,
      {Containment("declared", declared), Containment("derived", derived)},
      {});
  return pass;
}

int Run(const std::string& root, const std::string& out_path) {
  StatusOr<std::vector<analysis::SourceFile>> files =
      analysis::LoadTree(root, analysis::DefaultScanDirs());
  if (!files.ok()) {
    std::fprintf(stderr, "micro_lint: %s\n",
                 files.status().ToString().c_str());
    return 2;
  }

  // Two complete passes: the timing-free reports must be byte-identical,
  // or the byte-stability contract the committed artifact advertises is
  // broken and nothing gets written.
  const PassResult pass = RunPass(*files);
  const PassResult rerun = RunPass(*files);
  if (pass.stable_json != rerun.stable_json) {
    std::fprintf(stderr,
                 "micro_lint: report not byte-stable across two runs\n");
    return 2;
  }

  const analysis::flow::FlowResult& result = pass.flow;
  const analysis::LintSummary& summary = pass.summary;
  // Re-format once more with the timing gauges appended; everything else
  // in the report is the proven-stable content.
  const analysis::flow::FlowConfig config =
      analysis::flow::DefaultFlowConfig();
  std::vector<security::InterfaceEdge> declared;
  for (const analysis::flow::DeclaredEdge& edge : config.declared_comm) {
    declared.push_back({edge.from, edge.to, edge.kind});
  }
  std::vector<security::InterfaceEdge> derived;
  for (const analysis::flow::CommEdge& edge : result.derived_comm) {
    derived.push_back({edge.from, edge.to, edge.kind});
  }
  const std::string json = analysis::flow::FormatFlowJson(
      result, summary,
      {Containment("declared", declared), Containment("derived", derived)},
      {{"lint_cost.full_tree_us", pass.total_us},
       {"lint_cost.lint_us", pass.lint_us},
       {"lint_cost.flow_us", pass.flow_us}});
  const Status written = WriteStringToFile(out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "micro_lint: %s\n", written.ToString().c_str());
    return 2;
  }

  std::size_t lint_blocking = 0;
  for (const analysis::Finding& finding : pass.lint_findings) {
    if (!finding.suppressed && !finding.warning) {
      ++lint_blocking;
    }
  }
  std::printf(
      "micro_lint: %zu files, lint %zuus (%zu blocking), flow %zuus "
      "(%zu functions, %zu edges, %zu blocking), report byte-stable -> %s\n",
      files->size(), pass.lint_us, lint_blocking, pass.flow_us,
      result.functions, result.call_edges, summary.unsuppressed,
      out_path.c_str());
  return (lint_blocking > 0 || summary.unsuppressed > 0) ? 1 : 0;
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  std::string root = ".";
  std::string out_path = "BENCH_analysis.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--root <dir>] [--out <report.json>]\n",
                   argv[0]);
      return 2;
    }
  }
  return xoar::Run(root, out_path);
}
