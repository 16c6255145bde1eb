#include "src/analysis/rules.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>

#include "src/base/strings.h"

namespace xoar {
namespace analysis {
namespace {

using Tokens = std::vector<Token>;

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Index of the punct matching the opener at `open` ("(" / "{"), or npos.
std::size_t MatchingClose(const Tokens& tokens, std::size_t open,
                          std::string_view open_text,
                          std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], open_text)) {
      ++depth;
    } else if (IsPunct(tokens[i], close_text)) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return static_cast<std::size_t>(-1);
}

// ---------------------------------------------------------------------------
// Layering
// ---------------------------------------------------------------------------

void CheckLayeringTableIsAcyclic(const LintConfig& config,
                                 std::vector<Finding>* findings) {
  std::map<std::string, std::vector<std::string>> deps;
  for (const auto& [module, allowed] : config.layering) {
    deps[module] = allowed;
  }
  // Colors: 0 unvisited, 1 on stack, 2 done.
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  // Iterative DFS with an explicit cycle report.
  std::function<bool(const std::string&)> visit =
      [&](const std::string& module) -> bool {
    color[module] = 1;
    stack.push_back(module);
    for (const std::string& dep : deps[module]) {
      if (dep == module) {
        continue;  // self edges are implicit and harmless
      }
      if (color[dep] == 1) {
        std::string cycle = dep;
        for (auto it = std::find(stack.begin(), stack.end(), dep);
             it != stack.end(); ++it) {
          if (*it != dep) {
            cycle += " -> " + *it;
          }
        }
        cycle += " -> " + dep;
        findings->push_back({"layering", "<tree>", 0,
                             StrFormat("declared layering table contains a "
                                       "cycle: %s",
                                       cycle.c_str()),
                             false,
                             ""});
        stack.pop_back();
        color[module] = 2;
        return false;
      }
      if (color[dep] == 0 && !visit(dep)) {
        stack.pop_back();
        color[module] = 2;
        return false;
      }
    }
    stack.pop_back();
    color[module] = 2;
    return true;
  };
  for (const auto& [module, allowed] : config.layering) {
    (void)allowed;
    if (color[module] == 0 && !visit(module)) {
      return;  // one cycle report is enough
    }
  }
}

void CheckLayering(const std::vector<SourceFile>& files,
                   const LintConfig& config, std::vector<Finding>* findings) {
  CheckLayeringTableIsAcyclic(config, findings);
  std::map<std::string, const std::vector<std::string>*> allowed;
  for (const auto& [module, deps] : config.layering) {
    allowed[module] = &deps;
  }
  for (const SourceFile& file : files) {
    if (file.module.empty()) {
      continue;  // tools/bench/examples may include any src module
    }
    auto it = allowed.find(file.module);
    for (const IncludeDirective& inc : file.lexed.includes) {
      if (inc.angled || !StartsWith(inc.path, "src/")) {
        continue;
      }
      const std::size_t slash = inc.path.find('/', 4);
      if (slash == std::string::npos) {
        continue;
      }
      const std::string target = inc.path.substr(4, slash - 4);
      if (target == file.module) {
        continue;
      }
      if (it == allowed.end()) {
        findings->push_back(
            {"layering", file.path, inc.line,
             StrFormat("module \"%s\" is not in the declared layering table",
                       file.module.c_str()),
             false,
             ""});
        break;  // one finding per unknown module is enough
      }
      if (std::find(it->second->begin(), it->second->end(), target) ==
          it->second->end()) {
        findings->push_back(
            {"layering", file.path, inc.line,
             StrFormat("include of \"%s\" violates the layering DAG: "
                       "%s may not depend on %s",
                       inc.path.c_str(), file.module.c_str(),
                       target.c_str()),
             false,
             ""});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Privilege flow
// ---------------------------------------------------------------------------

struct ExtractedGrant {
  std::string target_token;
  std::string op;  // enumerator name
  int line;
};

struct ExtractedPermitAll {
  std::string target_token;  // empty when unattributable
  int line;
};

// Resolves a loop variable at PermitHypercall(...) back to the op list of
// the nearest preceding `for (Hypercall <var> : { Hypercall::kA, ... })`.
std::vector<std::string> ResolveLoopOps(const Tokens& t, std::size_t from,
                                        const std::string& var) {
  for (std::size_t i = from; i-- > 0;) {
    if (!IsIdent(t[i], "for")) {
      continue;
    }
    if (i + 5 >= t.size() || !IsPunct(t[i + 1], "(") ||
        !IsIdent(t[i + 2], "Hypercall") || !IsIdent(t[i + 3], var) ||
        !IsPunct(t[i + 4], ":") || !IsPunct(t[i + 5], "{")) {
      continue;
    }
    const std::size_t end = MatchingClose(t, i + 5, "{", "}");
    std::vector<std::string> ops;
    for (std::size_t j = i + 5;
         j < std::min(end, t.size()); ++j) {
      if (IsIdent(t[j], "Hypercall") && j + 2 < t.size() &&
          IsPunct(t[j + 1], "::")) {
        ops.push_back(t[j + 2].text);
      }
    }
    return ops;
  }
  return {};
}

// Extracts every PermitHypercall(grantor, target, op) grant and every
// hypercall_policy().PermitAll() site from the platform source.
void ExtractGrants(const SourceFile& file,
                   std::vector<ExtractedGrant>* grants,
                   std::vector<ExtractedPermitAll>* permit_alls) {
  const Tokens& t = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (IsIdent(t[i], "PermitHypercall") && IsPunct(t[i + 1], "(")) {
      const std::size_t close = MatchingClose(t, i + 1, "(", ")");
      if (close == static_cast<std::size_t>(-1)) {
        continue;
      }
      // Split the argument tokens at top-level commas.
      std::vector<std::vector<Token>> args(1);
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (IsPunct(t[j], "(") || IsPunct(t[j], "{") || IsPunct(t[j], "[")) {
          ++depth;
        } else if (IsPunct(t[j], ")") || IsPunct(t[j], "}") ||
                   IsPunct(t[j], "]")) {
          --depth;
        } else if (depth == 0 && IsPunct(t[j], ",")) {
          args.emplace_back();
          continue;
        }
        args.back().push_back(t[j]);
      }
      if (args.size() != 3 || args[1].empty() || args[2].empty()) {
        continue;
      }
      const std::string target = args[1].back().text;
      const int line = t[i].line;
      const std::vector<Token>& op_arg = args[2];
      if (op_arg.size() >= 3 && IsIdent(op_arg[0], "Hypercall") &&
          IsPunct(op_arg[1], "::")) {
        grants->push_back({target, op_arg[2].text, line});
      } else if (op_arg.size() == 1 &&
                 op_arg[0].kind == TokenKind::kIdentifier) {
        for (const std::string& op :
             ResolveLoopOps(t, i, op_arg[0].text)) {
          grants->push_back({target, op, line});
        }
      }
      continue;
    }
    if (IsIdent(t[i], "PermitAll") && IsPunct(t[i + 1], "(")) {
      // Attribute via the nearest preceding `domain(<token>)`.
      std::string target;
      const std::size_t lookback = i > 30 ? i - 30 : 0;
      for (std::size_t j = i; j-- > lookback;) {
        if (IsIdent(t[j], "domain") && j + 2 < t.size() &&
            IsPunct(t[j + 1], "(") &&
            t[j + 2].kind == TokenKind::kIdentifier) {
          target = t[j + 2].text;
          break;
        }
      }
      permit_alls->push_back({target, t[i].line});
    }
  }
}

void CheckPrivilege(const std::vector<SourceFile>& files,
                    const LintConfig& config,
                    std::vector<Finding>* findings) {
  std::set<std::string> attributable;  // ops some shard is declared to hold
  std::map<std::string, const ShardGrant*> by_target;
  for (const ShardGrant& shard : config.shards) {
    by_target[shard.target_token] = &shard;
    attributable.insert(shard.ops.begin(), shard.ops.end());
  }
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, config.hypercall_header_suffix)) {
      const std::set<std::string> unprivileged =
          ExtractUnprivilegedHypercallOps(file);
      attributable.insert(unprivileged.begin(), unprivileged.end());
    }
  }

  for (const SourceFile& file : files) {
    if (file.module == config.privilege_exempt_module) {
      continue;  // the hypervisor implements the ops; it may name them all
    }
    const bool is_platform =
        EndsWith(file.path, config.platform_source_suffix);
    std::set<int> grant_site_lines;
    if (is_platform) {
      std::vector<ExtractedGrant> grants;
      std::vector<ExtractedPermitAll> permit_alls;
      ExtractGrants(file, &grants, &permit_alls);
      for (const ExtractedGrant& grant : grants) {
        auto it = by_target.find(grant.target_token);
        if (it == by_target.end()) {
          findings->push_back(
              {"privilege", file.path, grant.line,
               StrFormat("permit_hypercall grants %s to \"%s\", which is "
                         "not a shard in the declared privilege table",
                         grant.op.c_str(), grant.target_token.c_str()),
               false,
               ""});
          continue;
        }
        const ShardGrant& shard = *it->second;
        if (!shard.all_privileges &&
            std::find(shard.ops.begin(), shard.ops.end(), grant.op) ==
                shard.ops.end()) {
          findings->push_back(
              {"privilege", file.path, grant.line,
               StrFormat("permit_hypercall grants %s to shard \"%s\" beyond "
                         "its declared set (PAPER.md §3.1)",
                         grant.op.c_str(), shard.shard.c_str()),
               false,
               ""});
        }
      }
      for (const ExtractedPermitAll& site : permit_alls) {
        auto it = by_target.find(site.target_token);
        if (site.target_token.empty() || it == by_target.end() ||
            !it->second->all_privileges) {
          findings->push_back(
              {"privilege", file.path, site.line,
               "PermitAll() is reserved for the Bootstrapper's boot-time "
               "blanket grant (§5.2); attribute or remove this site",
               false,
               ""});
        }
      }
    }

    // Every remaining Hypercall::k* mention must be attributable.
    const Tokens& t = file.lexed.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!IsIdent(t[i], "Hypercall") || !IsPunct(t[i + 1], "::") ||
          t[i + 2].kind != TokenKind::kIdentifier) {
        continue;
      }
      const std::string& op = t[i + 2].text;
      if (op == "kCount") {
        continue;  // metadata, not an operation
      }
      if (attributable.count(op) == 0) {
        findings->push_back(
            {"privilege", file.path, t[i].line,
             StrFormat("Hypercall::%s is not in the unprivileged class and "
                       "no shard's declared grant set includes it — this "
                       "call site could never pass the HypercallFilter",
                       op.c_str()),
             false,
             ""});
      }
    }
    if (!is_platform) {
      // PermitAll outside the platform source (and outside src/hv, already
      // exempt) is always a privilege escalation hazard.
      for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (IsIdent(t[i], "PermitAll") && IsPunct(t[i + 1], "(")) {
          findings->push_back(
              {"privilege", file.path, t[i].line,
               "PermitAll() grants the full Dom0 privilege set; only the "
               "platform bootstrap may do this",
               false,
               ""});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

void CheckDeterminism(const std::vector<SourceFile>& files,
                      const LintConfig& config,
                      std::vector<Finding>* findings) {
  const std::set<std::string> clocks(config.banned_clock_identifiers.begin(),
                                     config.banned_clock_identifiers.end());
  const std::set<std::string> calls(config.banned_call_identifiers.begin(),
                                    config.banned_call_identifiers.end());
  const std::set<std::string> threads(
      config.banned_thread_identifiers.begin(),
      config.banned_thread_identifiers.end());
  for (const SourceFile& file : files) {
    bool exempt = false;
    for (const std::string& prefix : config.determinism_exempt_prefixes) {
      if (StartsWith(file.path, prefix)) {
        exempt = true;
        break;
      }
    }
    const Tokens& t = file.lexed.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) {
        continue;
      }
      const bool std_qualified =
          i >= 2 && IsPunct(t[i - 1], "::") && IsIdent(t[i - 2], "std");
      if (std_qualified ? threads.count("std::" + t[i].text) > 0
                        : threads.count(t[i].text) > 0) {
        findings->push_back(
            {"determinism", file.path, t[i].line,
             StrFormat("\"%s%s\" starts a thread; the simulator is "
                       "single-threaded by construction (DESIGN.md §2)",
                       std_qualified ? "std::" : "", t[i].text.c_str()),
             false,
             ""});
        continue;
      }
      if (exempt) {
        continue;
      }
      if (clocks.count(t[i].text) > 0) {
        findings->push_back(
            {"determinism", file.path, t[i].line,
             StrFormat("\"%s\" reads outside the simulated clock; all time "
                       "must come from Simulator::Now() (sim/bench only)",
                       t[i].text.c_str()),
             false,
             ""});
        continue;
      }
      if (calls.count(t[i].text) > 0 && i + 1 < t.size() &&
          IsPunct(t[i + 1], "(") &&
          (i == 0 ||
           (!IsPunct(t[i - 1], ".") && !IsPunct(t[i - 1], "->")))) {
        // A declarator, not a call: `long time() { ... }` / `... const;`.
        const std::size_t close = MatchingClose(t, i + 1, "(", ")");
        if (close != static_cast<std::size_t>(-1) && close + 1 < t.size() &&
            (IsPunct(t[close + 1], "{") || IsIdent(t[close + 1], "const") ||
             IsIdent(t[close + 1], "noexcept") ||
             IsIdent(t[close + 1], "override"))) {
          continue;
        }
        findings->push_back(
            {"determinism", file.path, t[i].line,
             StrFormat("call to \"%s()\" is nondeterministic; use "
                       "src/base/rng.h streams or Simulator time",
                       t[i].text.c_str()),
             false,
             ""});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Audit coverage
// ---------------------------------------------------------------------------

// True when the token range [begin, end) contains an AuditLog emission:
// RecordAudit(...), an AuditEvent construction, or <audit-ish>.Record*(...).
bool BodyEmitsAudit(const Tokens& t, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) {
      continue;
    }
    if (t[i].text == "RecordAudit" || t[i].text == "AuditEvent") {
      return true;
    }
    const bool auditish = t[i].text.find("audit") != std::string::npos ||
                          t[i].text.find("Audit") != std::string::npos;
    if (auditish && i + 2 < t.size() &&
        (IsPunct(t[i + 1], ".") || IsPunct(t[i + 1], "->")) &&
        t[i + 2].kind == TokenKind::kIdentifier &&
        StartsWith(t[i + 2].text, "Record")) {
      return true;
    }
  }
  return false;
}

void CheckAudit(const std::vector<SourceFile>& files, const LintConfig& config,
                std::vector<Finding>* findings) {
  std::set<std::string> seen;
  for (const SourceFile& file : files) {
    const Tokens& t = file.lexed.tokens;
    for (const AuditedOp& op : config.audited_ops) {
      for (std::size_t i = 0; i + 3 < t.size(); ++i) {
        if (!IsIdent(t[i], op.cls) || !IsPunct(t[i + 1], "::") ||
            !IsIdent(t[i + 2], op.method) || !IsPunct(t[i + 3], "(")) {
          continue;
        }
        const std::size_t close = MatchingClose(t, i + 3, "(", ")");
        if (close == static_cast<std::size_t>(-1)) {
          continue;
        }
        // Definition if a `{` follows before any `;` (qualifiers like
        // const/noexcept may intervene; a trailing `;` means declaration
        // or a qualified call).
        std::size_t j = close + 1;
        while (j < t.size() && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) {
          ++j;
        }
        if (j >= t.size() || !IsPunct(t[j], "{")) {
          continue;
        }
        const std::size_t body_end = MatchingClose(t, j, "{", "}");
        seen.insert(op.cls + "::" + op.method);
        if (!BodyEmitsAudit(t, j, body_end)) {
          findings->push_back(
              {"audit", file.path, t[i].line,
               StrFormat("privileged operation %s::%s does not emit an "
                         "AuditLog event in its body (§3.2.2: every "
                         "privileged action lands in the audit log)",
                         op.cls.c_str(), op.method.c_str()),
               false,
               ""});
        }
      }
    }
  }
  if (config.require_audited_op_definitions) {
    for (const AuditedOp& op : config.audited_ops) {
      const std::string name = op.cls + "::" + op.method;
      if (seen.count(name) == 0) {
        findings->push_back(
            {"audit", "<tree>", 0,
             StrFormat("audited operation %s was not found in the tree; "
                       "update the audited-op table in "
                       "src/analysis/rules.cc if it was renamed",
                       name.c_str()),
             false,
             ""});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Suppressions (shared by xoar_lint and xoar_flow)
// ---------------------------------------------------------------------------

void ApplyToolSuppressions(const std::vector<SourceFile>& files,
                           std::string_view tool,
                           const std::vector<std::string>& known_rules,
                           bool strict, std::vector<Finding>* findings) {
  const std::string marker = "xoar-" + std::string(tool);
  struct Key {
    std::string file;
    std::string rule;
    int line;
    bool operator<(const Key& o) const {
      return std::tie(file, rule, line) < std::tie(o.file, o.rule, o.line);
    }
  };
  std::map<Key, const SuppressionComment*> index;
  for (const SourceFile& file : files) {
    for (const SuppressionComment& sup : file.lexed.suppressions) {
      if (sup.tool != tool) {
        continue;  // addressed to the other tool
      }
      if (!sup.valid) {
        findings->push_back(
            {"suppression", file.path, sup.line,
             StrFormat("malformed %s comment: %s (expected "
                       "\"%s: allow(<rule>): <justification>\")",
                       marker.c_str(), sup.error.c_str(), marker.c_str()),
             false,
             ""});
        continue;
      }
      if (std::find(known_rules.begin(), known_rules.end(), sup.rule) ==
          known_rules.end()) {
        findings->push_back(
            {"suppression", file.path, sup.line,
             StrFormat("%s: allow(%s) names an unknown rule",
                       marker.c_str(), sup.rule.c_str()),
             false,
             ""});
        continue;
      }
      index[{file.path, sup.rule, sup.line}] = &sup;
    }
  }
  std::set<const SuppressionComment*> used;
  for (Finding& finding : *findings) {
    if (finding.rule == "suppression") {
      continue;  // the suppression rule cannot be suppressed
    }
    for (int line : {finding.line, finding.line - 1}) {
      auto it = index.find({finding.file, finding.rule, line});
      if (it != index.end()) {
        finding.suppressed = true;
        finding.justification = it->second->justification;
        used.insert(it->second);
        break;
      }
    }
  }
  // A waiver that silences nothing has rotted: the violation it excused was
  // fixed or moved, and leaving the comment behind would pre-excuse the
  // next (possibly unrelated) violation on that line.
  for (const auto& [key, sup] : index) {
    if (used.count(sup) > 0) {
      continue;
    }
    findings->push_back(
        {"suppression", key.file, key.line,
         StrFormat("stale suppression: %s: allow(%s) no longer silences "
                   "any finding; remove the comment",
                   marker.c_str(), key.rule.c_str()),
         false,
         "",
         /*warning=*/!strict});
  }
}

std::set<std::string> ExtractUnprivilegedHypercallOps(const SourceFile& file) {
  std::set<std::string> ops;
  const Tokens& t = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t[i], "IsUnprivilegedHypercall") || !IsPunct(t[i + 1], "(")) {
      continue;
    }
    const std::size_t close = MatchingClose(t, i + 1, "(", ")");
    if (close == static_cast<std::size_t>(-1)) {
      break;
    }
    std::size_t body = close + 1;
    while (body < t.size() && !IsPunct(t[body], "{") &&
           !IsPunct(t[body], ";")) {
      ++body;
    }
    if (body >= t.size() || !IsPunct(t[body], "{")) {
      continue;  // declaration only
    }
    const std::size_t end = MatchingClose(t, body, "{", "}");
    std::vector<std::string> pending;
    for (std::size_t j = body;
         j < std::min(end, t.size()); ++j) {
      if (IsIdent(t[j], "case") && j + 4 < t.size() &&
          IsIdent(t[j + 1], "Hypercall") && IsPunct(t[j + 2], "::")) {
        pending.push_back(t[j + 3].text);
        continue;
      }
      if (IsIdent(t[j], "return") && j + 1 < t.size()) {
        if (IsIdent(t[j + 1], "true")) {
          ops.insert(pending.begin(), pending.end());
        }
        pending.clear();
      }
    }
    break;
  }
  return ops;
}

LintConfig DefaultConfig() {
  LintConfig config;
  // Declared module DAG. Mirrors src/*/CMakeLists.txt target_link_libraries
  // closure: base at the bottom, then sim/obs, the hypervisor, services,
  // control plane, platform, and the leaves.
  config.layering = {
      {"base", {}},
      {"sim", {"base"}},
      {"obs", {"base", "sim"}},
      {"net", {"base", "sim"}},
      {"analysis", {"base"}},
      // The replay journal observes the trace stream and nothing above it:
      // it may never include the platform it records, or journaling could
      // perturb the execution being journaled.
      {"replay", {"base", "sim", "obs"}},
      {"hv", {"base", "sim", "obs"}},
      {"xs", {"base", "sim", "obs", "hv"}},
      {"dev", {"base", "sim", "obs", "hv"}},
      {"drv", {"base", "sim", "obs", "hv", "xs", "dev"}},
      {"ctl", {"base", "sim", "obs", "hv", "xs", "dev", "drv"}},
      {"core", {"base", "sim", "obs", "hv", "xs", "dev", "drv", "ctl"}},
      {"fault",
       {"base", "sim", "obs", "hv", "xs", "dev", "drv", "ctl", "core",
        "replay"}},
      {"security",
       {"base", "sim", "obs", "hv", "xs", "dev", "drv", "ctl", "core"}},
      {"workloads",
       {"base", "sim", "obs", "net", "hv", "xs", "dev", "drv", "ctl"}},
      // The fleet orchestrates whole platforms and arms fault campaigns,
      // so it sits at the very top of the DAG; nothing may include it.
      {"fleet",
       {"base", "sim", "obs", "hv", "xs", "dev", "drv", "ctl", "core",
        "fault", "replay"}},
  };

  // src/replay/ is deliberately NOT exempt: a wall-clock read in the
  // journal path would be an unjournaled input, silently breaking the
  // "same seed, same record stream" contract replay verification rests on.
  config.determinism_exempt_prefixes = {"src/sim/", "bench/"};
  config.banned_clock_identifiers = {
      "system_clock",  "steady_clock", "high_resolution_clock",
      "random_device", "gettimeofday", "clock_gettime",
      "timespec_get",  "localtime",    "gmtime",
      "mktime",
  };
  config.banned_call_identifiers = {"rand", "srand", "time", "clock"};
  // The simulator is one single-threaded world (DESIGN.md §2), which is
  // why the tests have no TSan build; this keeps it that way everywhere,
  // src/sim/ and bench/ included.
  config.banned_thread_identifiers = {"std::thread", "std::jthread",
                                      "std::async", "pthread_create"};

  // Fig 3.1 / Table 5.1 privilege assignments, attributed via the domain
  // identifiers the grant sites in src/core/xoar_platform.cc use.
  config.shards = {
      {"Bootstrapper", "bootstrapper_", /*all_privileges=*/true, {}},
      {"Builder",
       "builder_dom_",
       false,
       {"kDomctlCreate", "kDomctlDestroy", "kDomctlPause", "kDomctlUnpause",
        "kForeignMemoryMap", "kDomctlSetPrivileges", "kDomctlDelegate",
        "kSnapshotOp", "kSetupGuestRings"}},
      {"PCIBack",
       "pciback_dom_",
       false,
       {"kDomctlSetPrivileges", "kPhysdevOp", "kPciConfigOp",
        "kDomctlDestroy"}},
      {"Toolstack",
       "ts_dom",
       false,
       {"kDomctlPause", "kDomctlUnpause", "kDomctlDestroy"}},
      // Fig 3.1: XenStore-State (including every density-scale-out State
      // shard, SCALING.md) is a plain restartable KV with *no* hypercall
      // privileges. The empty grant set makes any future grant to a State
      // shard domain a blocking finding.
      {"XenStore-State", "state_dom", false, {}},
  };

  // §3.2.2: privileged operations that must land in the audit log.
  config.audited_ops = {
      {"RestartEngine", "DoRestart"},    // microreboot execution
      {"Watchdog", "HandleFailure"},     // restart escalation
      {"Watchdog", "Quarantine"},        // degraded-mode entry
      {"Builder", "BuildVm"},            // builder launch
      {"PciBackService", "PassThrough"}  // PCI device assignment
  };
  return config;
}

std::vector<std::string> SuppressibleRules() {
  return {"layering", "privilege", "determinism", "audit"};
}

std::vector<Finding> RunLint(const std::vector<SourceFile>& files,
                             const LintConfig& config) {
  std::vector<Finding> findings;
  CheckLayering(files, config, &findings);
  CheckPrivilege(files, config, &findings);
  CheckDeterminism(files, config, &findings);
  CheckAudit(files, config, &findings);
  ApplyToolSuppressions(files, "lint", SuppressibleRules(), config.strict,
                        &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace analysis
}  // namespace xoar
