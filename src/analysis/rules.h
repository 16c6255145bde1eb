// The four xoar_lint rule families (ANALYSIS.md, DESIGN.md §5e).
//
// Xoar's disaggregation argument rests on invariants that, before this
// layer, were only enforced at runtime (HypercallFilter, AuditLog) or by
// convention (module layering, simulated time). Each rule makes one of them
// machine-checked at build time:
//
//   layering     — the src/ module dependency DAG is declared in ONE table
//                  (DefaultConfig().layering); an include edge outside the
//                  table, or a cycle in the table itself, is an error.
//   privilege    — every `Hypercall::k*` use outside src/hv/ must be
//                  attributable to a shard whose declared grant set (kept in
//                  sync with the permit_hypercall calls in
//                  src/core/xoar_platform.cc and the unprivileged class in
//                  src/hv/hypercall.h) includes that op (§3.1, Fig 3.1).
//   determinism  — wall-clock and libc randomness are banned outside
//                  src/sim/ and bench/, protecting seed-stable fault
//                  campaigns and byte-stable reports (DESIGN.md §5c);
//                  thread creation is banned everywhere, since the
//                  simulator is single-threaded by construction (§2).
//   audit        — the privileged operations named in the audited-op table
//                  (restart escalation, quarantine, builder launch, PCI
//                  assignment) must emit an AuditLog event in the same
//                  function body (§3.2.2).
//
// A fifth pseudo-rule, "suppression", reports xoar-lint comments that are
// malformed, lack a justification, or name an unknown rule. It cannot be
// suppressed.
#ifndef XOAR_SRC_ANALYSIS_RULES_H_
#define XOAR_SRC_ANALYSIS_RULES_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/source_tree.h"

namespace xoar {
namespace analysis {

struct Finding {
  std::string rule;
  std::string file;  // tree-relative path, or "<tree>" for tree-wide issues
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string justification;  // set when suppressed
  // Warnings (stale suppressions, declared-but-dead comm edges) are
  // reported but never fail the build; --strict promotes them to blocking
  // at creation time, so a strict run emits them with warning == false.
  bool warning = false;
};

// One shard's declared privilege grants (the paper's Fig 3.1 assignments,
// Table 5.1). `target_token` is the identifier the grant call sites in the
// platform source use for this shard's domain, which is how extracted
// grants are attributed back to a shard.
struct ShardGrant {
  std::string shard;
  std::string target_token;
  bool all_privileges = false;      // PermitAll (Bootstrapper only)
  std::vector<std::string> ops;     // Hypercall::k* enumerator names
};

struct AuditedOp {
  std::string cls;     // e.g. "Builder"
  std::string method;  // e.g. "BuildVm"
};

struct LintConfig {
  // module -> full set of modules it may include from (the declared DAG).
  std::vector<std::pair<std::string, std::vector<std::string>>> layering;

  // Path prefixes exempt from the determinism rule.
  std::vector<std::string> determinism_exempt_prefixes;
  // Banned wherever they appear as an identifier (chrono clocks etc.).
  std::vector<std::string> banned_clock_identifiers;
  // Banned only in call position: `name(` not preceded by `.` or `->`.
  std::vector<std::string> banned_call_identifiers;
  // Thread creation, banned in every file (no exempt prefix applies). An
  // entry "std::x" matches only the qualified name, so a variable named
  // `thread` is not flagged.
  std::vector<std::string> banned_thread_identifiers;

  // Privilege rule inputs.
  std::vector<ShardGrant> shards;
  std::string privilege_exempt_module = "hv";
  std::string hypercall_header_suffix = "src/hv/hypercall.h";
  std::string platform_source_suffix = "src/core/xoar_platform.cc";

  // Audit rule inputs.
  std::vector<AuditedOp> audited_ops;
  // When true (the real tree), every audited op must be *found* somewhere,
  // so renaming a privileged operation cannot silently detach its rule.
  // Fixture trees set this to false.
  bool require_audited_op_definitions = true;

  // Promote warnings (stale suppressions) to blocking findings.
  bool strict = false;
};

// The one authoritative table set. Layering mirrors src/*/CMakeLists.txt
// link dependencies; shard grants mirror PAPER.md §3.1/Table 5.1.
LintConfig DefaultConfig();

// Rules a suppression comment may name.
std::vector<std::string> SuppressibleRules();

// Parses IsUnprivilegedHypercall's switch in src/hv/hypercall.h: every
// `case Hypercall::kX:` that reaches `return true` is in the default-grant
// (unprivileged) class. Shared by the lexical privilege rule and the
// interprocedural privilege-reachability rule in src/analysis/flow.
std::set<std::string> ExtractUnprivilegedHypercallOps(const SourceFile& file);

// Shared suppression machinery for xoar_lint and xoar_flow. Considers only
// the suppression comments carrying `tool`'s marker ("lint" or "flow"):
// reports malformed comments and unknown rule names, suppresses matching
// findings (same file + rule, on the comment's line or the line below), and
// reports every valid suppression that silenced nothing as a stale-
// suppression warning (blocking when `strict`), so waivers cannot rot. The
// "suppression" pseudo-rule itself can never be suppressed.
void ApplyToolSuppressions(const std::vector<SourceFile>& files,
                           std::string_view tool,
                           const std::vector<std::string>& known_rules,
                           bool strict, std::vector<Finding>* findings);

// Runs every rule over the tree, applies suppressions, reports invalid
// suppressions, and returns findings sorted by (file, line, rule, message).
std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintConfig& config);

}  // namespace analysis
}  // namespace xoar

#endif  // XOAR_SRC_ANALYSIS_RULES_H_
