// Measurement plumbing shared by the benchmark workloads: a host clock, an
// in-memory span tracer, percentiles, an FNV-1a digest, and the work
// counters each layer already exposes through public accessors.
//
// Host time (std::chrono::steady_clock) is confined to the benchmark; the
// simulator itself never sees it, so a traced run executes exactly the same
// simulated events as an untraced one.
#ifndef XOAR_PERFBENCH_SRC_HARNESS_H_
#define XOAR_PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"

namespace xoar {
class AuditLog;
class Hypervisor;
class Obs;
class Simulator;
class XenStoreService;
}  // namespace xoar

namespace perfbench {

using Nanos = std::int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ToSeconds(Nanos ns) { return static_cast<double>(ns) * 1e-9; }
inline double ToMicros(Nanos ns) { return static_cast<double>(ns) * 1e-3; }

// The layers the benchmark calls into. Every span is charged to one of them;
// kBench is the benchmark's own round bookkeeping.
enum class Layer { kBench, kSim, kXs, kDrv, kCtl, kCore, kFleet };
constexpr int kLayerCount = 7;
std::string_view LayerName(Layer layer);

// Records one span per benchmark->layer call: name, layer, start, end, parent
// span and op id. Spans nest strictly (they are scoped objects), so a
// layer's self time is its spans' durations minus the part covered by
// child spans, accumulated as spans close. The first kMaxStored spans are
// also kept in memory and written out at the end of the run.
class Tracer {
 public:
  static constexpr std::size_t kMaxStored = 1 << 19;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Begin(const char* name, Layer layer, std::uint64_t op);
  void End();

  // Host time spent in `layer` minus its children's spans.
  double SelfSeconds(Layer layer) const;
  // Host time inside `layer`, counting only its outermost spans.
  double InclusiveSeconds(Layer layer) const;
  // Host time inside spans called `name` (inclusive).
  double NameSeconds(std::string_view name) const;
  std::uint64_t span_count() const { return span_count_; }

  // One line per stored span: id, parent, op, layer, name, start and end
  // in nanoseconds since the first span.
  xoar::Status WriteTsv(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    Layer layer;
    std::uint64_t op;
    std::int64_t parent;
    Nanos start;
    Nanos end;
  };
  struct Open {
    std::int64_t id;
    const char* name;
    Layer layer;
    Nanos start;
    Nanos child_ns;
    bool outermost;
  };

  bool enabled_ = false;
  std::uint64_t span_count_ = 0;
  std::vector<Record> records_;
  std::vector<Open> open_;
  std::array<int, kLayerCount> depth_{};
  std::array<Nanos, kLayerCount> self_ns_{};
  std::array<Nanos, kLayerCount> inclusive_ns_{};
  std::map<std::string_view, Nanos> name_ns_;
};

// Scoped span; free when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name, Layer layer, std::uint64_t op = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, layer, op);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// p-quantile (p in [0,1]) by linear interpolation between order statistics;
// 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// Fixed-memory latency histogram: exact below 128 ns, then 128 buckets per
// power of two (under 0.8% relative width), so its size does not grow with
// the number of samples a faster program produces. Percentiles interpolate
// by rank inside the bucket. Samples are multiplied by `scale` as they are
// added; the measured run sets it to the machine's momentary speed (see
// SpeedProbe).
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}
  void Add(Nanos ns);
  void set_scale(double scale) { scale_ = scale; }
  std::uint64_t count() const { return count_; }
  double PercentileNs(double p) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets = std::size_t{58} << kSubBits;
  static std::size_t Index(std::uint64_t ns);
  static std::uint64_t LowerBound(std::size_t index);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double scale_ = 1.0;
};

// Speed probe for a shared host, where co-tenants slow the machine by tens
// of percent for seconds at a time. One Sample() is a fixed pseudo-random
// walk over a 4 MiB table: memory-latency bound, like the simulator's
// pointer-heavy paths. It takes about kNominalSeconds on an uncontended
// 2.0 GHz x86-64 vCPU, so Speed() -- nominal over measured -- is the
// machine's momentary speed relative to that reference, and host seconds
// times speed are reference seconds.
class SpeedProbe {
 public:
  static constexpr double kNominalSeconds = 5.5e-4;

  double Speed();

 private:
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1 << 19, 1);
  std::uint64_t state_ = 88172645463325252ull;
};

class Fnv64 {
 public:
  void Add(std::uint64_t value);
  void Add(std::string_view bytes);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

// Folds every audit record into `digest`; the log is hash-chained, so its
// records determine its chain head.
void AddAudit(const xoar::AuditLog& audit, Fnv64* digest);

// Cumulative work counters, read through each layer's public accessors and
// its Obs registry. Everything but the gauges is monotonic, so the work of
// a window is Since(start).
enum WorkCounter {
  kSimEvents,
  kHypercalls,
  kGrantMaps,
  kEvtchnSends,
  kTableScans,
  kXsRequests,
  kXsFanoutOps,
  kXsLogicRestarts,
  kXsWatchFires,
  kXsWrites,
  kXsTxStarted,
  kXsTxCommitted,
  kXsNodes,  // gauge
  kBlkRequests,
  kNetFrames,
  kDrvConnects,
  kFrontRetries,
  kMicroreboots,
  kMigrationsAttempted,
  kMigrationsCompleted,
  kWorkCounterCount,
};

struct WorkCounters {
  std::array<std::uint64_t, kWorkCounterCount> v{};

  std::uint64_t operator[](WorkCounter c) const { return v[c]; }
  WorkCounters Since(const WorkCounters& start) const;
};

// Adds one host's counters: its simulator, hypervisor and XenStore service,
// and the Obs registry those components report into.
void AddHostCounters(xoar::Simulator& sim, xoar::Hypervisor& hv,
                     xoar::XenStoreService& xs, xoar::Obs& obs,
                     WorkCounters* counters);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // XOAR_PERFBENCH_SRC_HARNESS_H_
