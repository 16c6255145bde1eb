// Fixture: miniature report writer. JsonReport::Add* is the taint sink
// every byte-stable BENCH export goes through.
#ifndef XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_REPORT_TAINT_SRC_BASE_JSON_H_
#define XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_REPORT_TAINT_SRC_BASE_JSON_H_

#include <string>

namespace xoar_fixture {

class JsonReport {
 public:
  void AddMetric(const std::string& name, double value) {
    text_ += name + "=" + std::to_string(value) + "\n";
  }

 private:
  std::string text_;
};

}  // namespace xoar_fixture

#endif  // XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_REPORT_TAINT_SRC_BASE_JSON_H_
