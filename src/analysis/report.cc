#include "src/analysis/report.h"

#include <map>

#include "src/base/strings.h"

namespace xoar {
namespace analysis {

LintSummary Summarize(const std::vector<Finding>& findings,
                      std::size_t files_scanned) {
  LintSummary summary;
  summary.files_scanned = files_scanned;
  summary.total = findings.size();
  for (const Finding& finding : findings) {
    if (finding.suppressed) {
      ++summary.suppressed;
    } else if (finding.warning) {
      ++summary.warnings;
    } else {
      ++summary.unsuppressed;
    }
  }
  return summary;
}

std::string FormatText(const std::string& tool,
                       const std::vector<Finding>& findings,
                       const LintSummary& summary) {
  std::string out;
  for (const Finding& finding : findings) {
    out += StrFormat("%s:%d: [%s%s] %s", finding.file.c_str(), finding.line,
                     finding.rule.c_str(),
                     finding.warning && !finding.suppressed ? " warning" : "",
                     finding.message.c_str());
    if (finding.suppressed) {
      out += StrFormat("  [suppressed: %s]",
                       finding.justification.c_str());
    }
    out += "\n";
  }
  out += StrFormat(
      "%s: %zu file(s) scanned, %zu finding(s) (%zu suppressed, "
      "%zu warning(s), %zu blocking)\n",
      tool.c_str(), summary.files_scanned, summary.total, summary.suppressed,
      summary.warnings, summary.unsuppressed);
  return out;
}

void AddFindings(JsonReport* report, const std::string& prefix,
                 const std::vector<std::string>& rules,
                 const std::vector<Finding>& findings,
                 const LintSummary& summary) {
  std::map<std::string, std::size_t> per_rule;
  for (const std::string& rule : rules) {
    per_rule[rule] = 0;
  }
  per_rule["suppression"] = 0;
  for (const Finding& finding : findings) {
    if (!finding.suppressed && !finding.warning) {
      ++per_rule[finding.rule];
    }
  }
  for (const auto& [rule, count] : per_rule) {
    report->AddMetric(prefix + ".findings." + rule, "counter", count);
  }
  report->AddMetric(prefix + ".findings.total", "counter",
                    summary.unsuppressed);
  report->AddMetric(prefix + ".suppressed.total", "counter",
                    summary.suppressed);
  report->AddMetric(prefix + ".warnings.total", "counter", summary.warnings);
  for (const Finding& f : findings) {
    report->AddRow("findings", JsonObject()
                                   .Str("rule", f.rule)
                                   .Str("file", f.file)
                                   .Num("line", f.line)
                                   .Str("message", f.message)
                                   .Bool("suppressed", f.suppressed)
                                   .Bool("warning", f.warning)
                                   .Str("justification", f.justification));
  }
}

std::string FormatJson(const std::vector<Finding>& findings,
                       const LintSummary& summary) {
  JsonReport report("xoar_lint", {"findings"});
  report.AddMetric("lint.files_scanned", "gauge", summary.files_scanned);
  AddFindings(&report, "lint", SuppressibleRules(), findings, summary);
  return report.ToString();
}

}  // namespace analysis
}  // namespace xoar
