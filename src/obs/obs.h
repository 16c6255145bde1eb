// Obs bundles the two observability facilities — the metrics registry and
// the event tracer — into the single handle platform components take.
//
// Ownership: each Platform instance owns one Obs, so metrics from two
// platforms in one process (e.g. the baseline-vs-Xoar comparison benches)
// never mix. Every component takes the `Obs*` its caller owns, and there is
// no process-wide instance: a unit test or micro-bench that builds a bare
// component owns an Obs for it too.
//
// Thread-safety: none needed or provided — the simulation is
// single-threaded (see src/obs/metrics.h for the cost model).
#ifndef XOAR_SRC_OBS_OBS_H_
#define XOAR_SRC_OBS_OBS_H_

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace xoar {

class Obs {
 public:
  Obs() = default;
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  MetricRegistry metrics_;
  Tracer tracer_;
};

}  // namespace xoar

#endif  // XOAR_SRC_OBS_OBS_H_
