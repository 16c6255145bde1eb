// The benchmark's workloads. Each is a seeded closed loop against the
// simulator's public APIs: Setup builds and populates one system from the
// seed, and every Round is one blocking step of the loop. The benchmark
// (main.cc) times rounds, reads the work counters around them and runs the
// end-of-run checks.
#ifndef XOAR_PERFBENCH_SRC_WORKLOAD_H_
#define XOAR_PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/base/status.h"

namespace perfbench {

// What the loop did, as the workload counts it.
struct Tally {
  std::uint64_t attempted = 0;  // operations attempted
  std::uint64_t failed = 0;     // operations that returned an error
  std::uint64_t ops = 0;        // headline operations completed
  std::uint64_t creates = 0;    // guests created
  std::uint64_t ios = 0;        // guest I/O requests completed
  LatencyHistogram op_ns;      // host latency of each headline operation
  LatencyHistogram aux_ns;     // host latency of the secondary call
  LatencyHistogram io_sim_ns;  // simulated latency of each guest request
  Fnv64 statuses;               // completion status of every operation
};

// Cliff probes (traced run only): host time of one BlkBack image
// create+delete and of one XenStore read, at half and full population.
struct Probes {
  double image_half_us = 0;
  double image_full_us = 0;
  double read_half_us = 0;
  double read_full_us = 0;
};

// A named value with its unit: a result metric, or a workload's own figure
// (create_per_s, xs_op_p99_us, ...) printed beside the results.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Construct + Boot + populate from `seed`. Runs the cliff probes when
  // `probes` is non-null.
  virtual xoar::Status Setup(std::uint64_t seed, Probes* probes) = 0;
  // One closed-loop step; `round` doubles as the op id of its spans.
  virtual void Round(std::uint64_t round) = 0;
  // Rounds in the deterministic window: the digest and the exact-match
  // counters are taken after exactly this many rounds.
  virtual std::uint64_t checkpoint_rounds() const = 0;
  virtual WorkCounters Counters() = 0;
  virtual std::size_t PendingEvents() = 0;
  // p99 of the simulated latency of the guest requests completed so far
  // (0 when the workload sends none).
  virtual double IoSimP99Ms() {
    return tally_.io_sim_ns.PercentileNs(0.99) / 1e6;
  }
  // FNV-1a over final sim time, created domain ids, XenStore node count
  // and the audit chain.
  virtual std::uint64_t StateDigest() = 0;
  // Stops issuing, drains in-flight work, and appends every broken
  // invariant to `failures`.
  virtual void Finish(std::vector<std::string>* failures) = 0;
  // The workload's own figures over a loop of `loop_s` host seconds.
  virtual std::vector<Metric> Figures(double loop_s) = 0;

  Tally& tally() { return tally_; }

 protected:
  explicit Workload(Tracer* tracer) : tracer_(*tracer) {}

  // Records one operation's completion status.
  void Note(const xoar::Status& status) {
    ++tally_.attempted;
    tally_.statuses.Add(static_cast<std::uint64_t>(status.code()));
    if (!status.ok()) {
      ++tally_.failed;
    }
  }

  Tracer& tracer_;
  Tally tally_;
};

std::unique_ptr<Workload> MakeDensityChurn(Tracer* tracer);
std::unique_ptr<Workload> MakeIoSteady(Tracer* tracer);
std::unique_ptr<Workload> MakeXsMixed(Tracer* tracer);
std::unique_ptr<Workload> MakeFleetEvacuate(Tracer* tracer);

}  // namespace perfbench

#endif  // XOAR_PERFBENCH_SRC_WORKLOAD_H_
