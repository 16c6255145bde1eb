// Tests for the xoar_lint analysis library: the lexer, the rule engine over
// the seeded fixture trees in tests/analysis_fixtures/, and the suppression
// contract (ANALYSIS.md).
#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/analysis/flow/call_graph.h"
#include "src/analysis/flow/flow.h"
#include "src/analysis/lexer.h"
#include "src/analysis/report.h"
#include "src/analysis/rules.h"
#include "src/analysis/source_tree.h"

namespace xoar {
namespace analysis {
namespace {

std::vector<Finding> LintFixture(const std::string& name) {
  const std::string root =
      std::string(XOAR_FIXTURE_DIR) + "/" + name;
  LintConfig config = DefaultConfig();
  config.require_audited_op_definitions = false;  // fixture trees are small
  StatusOr<std::vector<SourceFile>> files =
      LoadTree(root, DefaultScanDirs());
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_FALSE(files->empty()) << "fixture " << name << " has no sources";
  return RunLint(*files, config);
}

std::vector<Finding> Unsuppressed(const std::vector<Finding>& findings) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (!f.suppressed) {
      out.push_back(f);
    }
  }
  return out;
}

std::vector<SourceFile> LoadFixtureTree(const std::string& name) {
  const std::string root = std::string(XOAR_FIXTURE_DIR) + "/" + name;
  StatusOr<std::vector<SourceFile>> files = LoadTree(root, DefaultScanDirs());
  EXPECT_TRUE(files.ok()) << files.status().ToString();
  EXPECT_FALSE(files->empty()) << "fixture " << name << " has no sources";
  return *files;
}

flow::FlowResult FlowFixture(const std::string& name, bool strict = false) {
  flow::FlowConfig config = flow::DefaultFlowConfig();
  config.strict = strict;
  return flow::RunFlow(LoadFixtureTree(name), config);
}

std::vector<Finding> Blocking(const std::vector<Finding>& findings) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (!f.suppressed && !f.warning) {
      out.push_back(f);
    }
  }
  return out;
}

// Call edges out of the function named `name` (qualified as
// "Class::Method" for methods), as qualified callee names.
std::vector<std::string> CalleesOf(const flow::CallGraph& graph,
                                   const std::string& name) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < graph.functions.size(); ++i) {
    if (flow::QualifiedName(graph.functions[i]) != name) {
      continue;
    }
    for (const flow::CallEdge& e : graph.edges[i]) {
      out.push_back(flow::QualifiedName(graph.functions[e.callee]));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, SkipsCommentsStringsAndCharLiterals) {
  const LexedSource lexed = Lex(
      "// rand() in a comment\n"
      "/* steady_clock in a block */\n"
      "const char* s = \"time(0) in a string\";\n"
      "char c = 'r';\n"
      "int x = 1;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "steady_clock");
    EXPECT_NE(t.text, "time");
  }
}

TEST(LexerTest, CapturesQuotedIncludesWithLines) {
  const LexedSource lexed = Lex(
      "#include \"src/hv/hypervisor.h\"\n"
      "#include <chrono>\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_EQ(lexed.includes[0].path, "src/hv/hypervisor.h");
  EXPECT_FALSE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[0].line, 1);
  EXPECT_TRUE(lexed.includes[1].angled);
  EXPECT_EQ(lexed.includes[1].line, 2);
}

TEST(LexerTest, SkipsRawStringBodies) {
  const LexedSource lexed = Lex(
      "const char* j = R\"(rand() \" time(0))\";\n"
      "int after = 2;\n");
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  const auto it = std::find_if(
      lexed.tokens.begin(), lexed.tokens.end(),
      [](const Token& t) { return t.text == "after"; });
  ASSERT_NE(it, lexed.tokens.end());
  EXPECT_EQ(it->line, 2);
}

TEST(LexerTest, ParsesWellFormedSuppression) {
  const LexedSource lexed =
      Lex("// xoar-lint: allow(determinism): seeded fixture waiver\n");
  ASSERT_EQ(lexed.suppressions.size(), 1u);
  EXPECT_TRUE(lexed.suppressions[0].valid);
  EXPECT_EQ(lexed.suppressions[0].rule, "determinism");
  EXPECT_EQ(lexed.suppressions[0].justification, "seeded fixture waiver");
}

TEST(LexerTest, RejectsSuppressionWithoutJustification) {
  const LexedSource lexed = Lex("// xoar-lint: allow(privilege)\n");
  ASSERT_EQ(lexed.suppressions.size(), 1u);
  EXPECT_FALSE(lexed.suppressions[0].valid);
  EXPECT_FALSE(lexed.suppressions[0].error.empty());
}

TEST(LexerTest, KeepsScopeAndArrowAsWholePuncts) {
  const LexedSource lexed = Lex("a::b c->d\n");
  std::vector<std::string> puncts;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokenKind::kPunct) {
      puncts.push_back(t.text);
    }
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"::", "->"}));
}

// ---------------------------------------------------------------------------
// Rule engine over fixture trees
// ---------------------------------------------------------------------------

TEST(FixtureTest, LayeringFixtureHasExactlyOneUpwardEdge) {
  const std::vector<Finding> findings = LintFixture("layering");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/obs/probe.cc");
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(FixtureTest, PrivilegeFixtureFlagsUngrantedOpOnly) {
  const std::vector<Finding> findings = LintFixture("privilege");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "privilege");
  EXPECT_EQ(findings[0].file, "src/drv/reboot.cc");
  EXPECT_NE(findings[0].message.find("kSysctlReboot"), std::string::npos);
}

TEST(FixtureTest, XenStoreStateFixtureFlagsGrantToStateShard) {
  // Fig 3.1 via SCALING.md: the State component's privilege row is empty,
  // so any hypercall grant to a State shard domain is a blocking finding.
  const std::vector<Finding> findings = LintFixture("xenstore_state");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "privilege");
  EXPECT_EQ(findings[0].file, "src/core/xoar_platform.cc");
  EXPECT_NE(findings[0].message.find("XenStore-State"), std::string::npos);
}

TEST(FixtureTest, DeterminismFixtureFlagsClockAndRandButNotDecoys) {
  const std::vector<Finding> findings = LintFixture("determinism");
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "determinism");
    EXPECT_EQ(f.file, "src/xs/clocked.cc");  // src/sim/clock.cc is exempt
  }
}

TEST(FixtureTest, ReplayWallclockFixtureFlagsUnjournaledClockRead) {
  // src/replay/ is not determinism-exempt: a wall-clock read there is an
  // unjournaled input that would break the replay contract (DEBUGGING.md).
  // Exactly one finding; the simulated-time decoys stay silent.
  const std::vector<Finding> findings = LintFixture("replay_wallclock");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
  EXPECT_EQ(findings[0].file, "src/replay/journal_clocked.cc");
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(FixtureTest, FleetLayeringFixtureFlagsReachUpIntoTheFleet) {
  // src/fleet sits at the very top of the DAG (it orchestrates whole
  // platforms and arms fault campaigns), so a control-plane file including
  // it is exactly one blocking layering finding; the same-module decoy
  // include stays silent.
  const std::vector<Finding> findings = LintFixture("fleet_layering");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/ctl/fleet_backdoor.cc");
  EXPECT_NE(findings[0].message.find("fleet"), std::string::npos);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(ConfigTest, ReplayModuleIsDeclaredBelowThePlatform) {
  // The journal records the platform's trace stream, so the layering table
  // must let fault (the campaign driver) see replay while keeping replay
  // itself limited to base/sim/obs — it may never include what it records.
  LintConfig config = DefaultConfig();
  auto find_module =
      [&](const std::string& name) -> const std::vector<std::string>* {
    for (const auto& [module, deps] : config.layering) {
      if (module == name) {
        return &deps;
      }
    }
    return nullptr;
  };
  const std::vector<std::string>* replay = find_module("replay");
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(*replay, (std::vector<std::string>{"base", "sim", "obs"}));
  const std::vector<std::string>* fault = find_module("fault");
  ASSERT_NE(fault, nullptr);
  EXPECT_NE(std::find(fault->begin(), fault->end(), "replay"), fault->end());
}

TEST(FixtureTest, AuditFixtureFlagsBuildVmWithoutEmission) {
  const std::vector<Finding> findings = LintFixture("audit");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "audit");
  EXPECT_NE(findings[0].message.find("Builder::BuildVm"), std::string::npos);
}

TEST(FixtureTest, SuppressedFixtureLintsCleanWithJustification) {
  const std::vector<Finding> findings = LintFixture("suppressed");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_FALSE(findings[0].justification.empty());
  EXPECT_TRUE(Unsuppressed(findings).empty());
}

TEST(FixtureTest, BadSuppressionYieldsTwoBlockingFindings) {
  const std::vector<Finding> findings = LintFixture("bad_suppression");
  const std::vector<Finding> blocking = Unsuppressed(findings);
  ASSERT_EQ(blocking.size(), 2u);
  EXPECT_EQ(blocking[0].rule, "suppression");   // malformed comment, line 9
  EXPECT_EQ(blocking[1].rule, "determinism");   // unsilenced, line 10
}

// ---------------------------------------------------------------------------
// Config-level checks
// ---------------------------------------------------------------------------

TEST(ConfigTest, CyclicLayeringTableIsItselfAFinding) {
  LintConfig config = DefaultConfig();
  config.require_audited_op_definitions = false;
  config.layering = {{"a", {"b"}}, {"b", {"a"}}};
  const std::vector<Finding> findings = RunLint({}, config);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(ConfigTest, MissingAuditedOpDefinitionIsReportedWhenRequired) {
  LintConfig config = DefaultConfig();
  config.audited_ops = {{"Ghost", "Op"}};
  const std::vector<Finding> findings = RunLint({}, config);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "audit");
  EXPECT_NE(findings[0].message.find("Ghost::Op"), std::string::npos);
}

TEST(ConfigTest, DefaultLayeringTableIsAcyclic) {
  LintConfig config = DefaultConfig();
  config.require_audited_op_definitions = false;
  const std::vector<Finding> findings = RunLint({}, config);
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// Report formatting
// ---------------------------------------------------------------------------

TEST(ReportTest, JsonIsStableAndCountsMatch) {
  std::vector<Finding> findings = {
      {"determinism", "src/xs/a.cc", 7, "msg \"quoted\"", false, ""},
      {"privilege", "bench/b.cpp", 3, "other", true, "why"},
  };
  const LintSummary summary = Summarize(findings, 4);
  EXPECT_EQ(summary.files_scanned, 4u);
  EXPECT_EQ(summary.total, 2u);
  EXPECT_EQ(summary.unsuppressed, 1u);
  EXPECT_EQ(summary.suppressed, 1u);
  const std::string a = FormatJson(findings, summary);
  const std::string b = FormatJson(findings, summary);
  EXPECT_EQ(a, b);  // byte-stable: no wall-clock anywhere in the report
  EXPECT_NE(a.find("\"msg \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(a.find("lint.findings.total"), std::string::npos);
  EXPECT_NE(a.find("\"sim_time_ns\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// xoar_flow: call-graph corner cases over fixture trees
// ---------------------------------------------------------------------------

TEST(CallGraphTest, RecursionAndMutualRecursionTerminate) {
  // Direct (StepDomain -> StepDomain) and mutual (StepDomain <-> RunQueue)
  // recursion: BuildCallGraph and the reachability fixpoint must both
  // terminate, with each edge recorded exactly once.
  const flow::CallGraph graph = flow::BuildCallGraph(
      LoadFixtureTree("flow_recursion"));
  // Self-edges are pruned (StepDomain -> StepDomain adds nothing to any
  // closure); the mutual-recursion cycle is kept and must not loop.
  EXPECT_EQ(CalleesOf(graph, "StepDomain"),
            (std::vector<std::string>{"RunQueue"}));
  EXPECT_EQ(CalleesOf(graph, "RunQueue"),
            (std::vector<std::string>{"StepDomain"}));
  EXPECT_EQ(CalleesOf(graph, "NetBack::Pump"),
            (std::vector<std::string>{"RunQueue"}));
  // The cycle reaches no hypercall issuance, so the flow rules stay quiet.
  const flow::FlowResult result = FlowFixture("flow_recursion");
  EXPECT_TRUE(Blocking(result.findings).empty());
}

TEST(CallGraphTest, OverloadedNamesResolveToEveryCandidate) {
  // One unqualified name, two definitions: conservative resolution links
  // the call site to both overloads (and dedup keeps it at exactly two).
  const flow::CallGraph graph = flow::BuildCallGraph(
      LoadFixtureTree("flow_overloads"));
  const auto it = graph.by_name.find("Transmit");
  ASSERT_NE(it, graph.by_name.end());
  EXPECT_EQ(it->second.size(), 2u);
  EXPECT_EQ(CalleesOf(graph, "NetBack::Send"),
            (std::vector<std::string>{"Transmit", "Transmit"}));
}

TEST(CallGraphTest, NamespaceAliasResolvesQualifiedCall) {
  // `namespace util = netutil;` — util::Checksum(...) must land on the
  // definition inside netutil, not dangle as an unknown callee.
  const flow::CallGraph graph = flow::BuildCallGraph(
      LoadFixtureTree("flow_alias"));
  EXPECT_EQ(CalleesOf(graph, "NetBack::Seal"),
            (std::vector<std::string>{"Checksum"}));
}

TEST(CallGraphTest, CallableValueWidensToTheCallersModule) {
  // A call through a std::function member is unresolvable, so the caller
  // widens to every function defined in its module and is marked.
  const flow::CallGraph graph = flow::BuildCallGraph(
      LoadFixtureTree("flow_fnptr"));
  EXPECT_EQ(graph.widened_functions, 1u);
  const std::vector<std::string> callees = CalleesOf(graph, "NetBack::Apply");
  EXPECT_NE(std::find(callees.begin(), callees.end(), "EncodeFrame"),
            callees.end());
  EXPECT_NE(std::find(callees.begin(), callees.end(), "DecodeFrame"),
            callees.end());
  for (std::size_t i = 0; i < graph.functions.size(); ++i) {
    if (flow::QualifiedName(graph.functions[i]) != "NetBack::Apply") {
      continue;
    }
    for (const flow::CallEdge& e : graph.edges[i]) {
      EXPECT_TRUE(e.widened);
    }
  }
}

// ---------------------------------------------------------------------------
// xoar_flow: the three interprocedural rules over the seeded fixtures
// ---------------------------------------------------------------------------

TEST(FlowFixtureTest, HiddenHelperPrivilegeLeakNamesTheWitnessChain) {
  const flow::FlowResult result = FlowFixture("flow_privilege");
  const std::vector<Finding> blocking = Blocking(result.findings);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].rule, "privilege_flow");
  EXPECT_NE(blocking[0].message.find("kSnapshotOp"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("NetBack::Flush"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("DrainBatch"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("Hypervisor::SnapshotDomain"),
            std::string::npos);
}

TEST(FlowFixtureTest, UndeclaredCommEdgeIsDerivedAndBlocking) {
  const flow::FlowResult result = FlowFixture("flow_comm");
  const std::vector<Finding> blocking = Blocking(result.findings);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].rule, "comm_flow");
  EXPECT_NE(blocking[0].message.find("NetBack -> BlkBack"),
            std::string::npos);
  bool derived = false;
  for (const flow::CommEdge& e : result.derived_comm) {
    if (e.from == "NetBack" && e.to == "BlkBack" && e.kind == "rpc") {
      derived = true;
    }
  }
  EXPECT_TRUE(derived);
}

TEST(FlowFixtureTest, UnorderedIterationIntoJournalIsBlocking) {
  const flow::FlowResult result = FlowFixture("flow_taint");
  const std::vector<Finding> blocking = Blocking(result.findings);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].rule, "nondet_flow");
  EXPECT_NE(blocking[0].message.find("counts_"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("Journal::Append"), std::string::npos);
}

TEST(FlowFixtureTest, UnorderedIterationIntoReportWriterIsBlocking) {
  const flow::FlowResult result = FlowFixture("flow_report_taint");
  const std::vector<Finding> blocking = Blocking(result.findings);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].rule, "nondet_flow");
  EXPECT_NE(blocking[0].message.find("gauges_"), std::string::npos);
  EXPECT_NE(blocking[0].message.find("JsonReport::AddMetric"),
            std::string::npos);
  EXPECT_NE(blocking[0].message.find("bench export"), std::string::npos);
}

TEST(FlowFixtureTest, StaleSuppressionWarnsAndStrictPromotes) {
  // A justified comment that silences nothing is a warning by default;
  // --strict turns the same comment into a blocking finding. The lexical
  // tool's comment in the fixture is invisible to xoar_flow (tool-scoped).
  const flow::FlowResult lax = FlowFixture("stale_suppression");
  ASSERT_EQ(lax.findings.size(), 1u);
  EXPECT_EQ(lax.findings[0].rule, "suppression");
  EXPECT_TRUE(lax.findings[0].warning);
  EXPECT_TRUE(Blocking(lax.findings).empty());
  const flow::FlowResult strict = FlowFixture("stale_suppression", true);
  ASSERT_EQ(strict.findings.size(), 1u);
  EXPECT_FALSE(strict.findings[0].warning);
  EXPECT_EQ(Blocking(strict.findings).size(), 1u);
}

TEST(FlowFixtureTest, StaleLintSuppressionWarnsUnderTheLexicalTool) {
  // The same fixture's xoar-lint comment surfaces only through RunLint.
  const std::vector<SourceFile> files = LoadFixtureTree("stale_suppression");
  LintConfig config = DefaultConfig();
  config.require_audited_op_definitions = false;
  const std::vector<Finding> findings = RunLint(files, config);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "suppression");
  EXPECT_TRUE(findings[0].warning);
  config.strict = true;
  const std::vector<Finding> promoted = RunLint(files, config);
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_FALSE(promoted[0].warning);
}

}  // namespace
}  // namespace analysis
}  // namespace xoar
