// Fixture: exactly one nondeterminism-taint violation. ExportGauges walks
// an unordered_map in bucket order and feeds each entry to
// JsonReport::AddMetric, so the exported report's row order can change
// from run to run.
#include "src/base/json.h"

#include <string>
#include <unordered_map>

namespace xoar_fixture {

class GaugeTable {
 public:
  void Set(const std::string& name, double value) { gauges_[name] = value; }

  void ExportGauges(JsonReport* report) const {
    for (const auto& gauge : gauges_) {
      report->AddMetric(gauge.first, gauge.second);
    }
  }

 private:
  std::unordered_map<std::string, double> gauges_;
};

}  // namespace xoar_fixture
