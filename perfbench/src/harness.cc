#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "src/base/audit_log.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace perfbench {

std::string_view LayerName(Layer layer) {
  static constexpr std::array<std::string_view, kLayerCount> kNames = {
      "bench", "sim", "xs", "drv", "ctl", "core", "fleet"};
  return kNames[static_cast<int>(layer)];
}

void Tracer::Begin(const char* name, Layer layer, std::uint64_t op) {
  const std::int64_t id = static_cast<std::int64_t>(span_count_++);
  const Nanos start = NowNs();
  if (records_.size() < kMaxStored) {
    records_.push_back(Record{name, layer, op,
                              open_.empty() ? -1 : open_.back().id, start, 0});
  }
  const bool outermost = depth_[static_cast<int>(layer)]++ == 0;
  open_.push_back(Open{id, name, layer, start, 0, outermost});
}

void Tracer::End() {
  const Nanos end = NowNs();
  const Open span = open_.back();
  open_.pop_back();
  const Nanos duration = end - span.start;
  const int layer = static_cast<int>(span.layer);
  --depth_[layer];
  self_ns_[layer] += duration - span.child_ns;
  if (span.outermost) {
    inclusive_ns_[layer] += duration;
  }
  name_ns_[span.name] += duration;
  if (!open_.empty()) {
    open_.back().child_ns += duration;
  }
  if (static_cast<std::size_t>(span.id) < records_.size()) {
    records_[span.id].end = end;
  }
}

double Tracer::SelfSeconds(Layer layer) const {
  return ToSeconds(self_ns_[static_cast<int>(layer)]);
}

double Tracer::InclusiveSeconds(Layer layer) const {
  return ToSeconds(inclusive_ns_[static_cast<int>(layer)]);
}

double Tracer::NameSeconds(std::string_view name) const {
  auto it = name_ns_.find(name);
  return it == name_ns_.end() ? 0 : ToSeconds(it->second);
}

xoar::Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return xoar::InternalError("cannot open " + path);
  }
  const Nanos base = records_.empty() ? 0 : records_.front().start;
  std::fprintf(f, "id\tparent\top\tlayer\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%zu\t%lld\t%llu\t%s\t%s\t%lld\t%lld\n", i,
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op),
                 std::string(LayerName(r.layer)).c_str(), r.name,
                 static_cast<long long>(r.start - base),
                 static_cast<long long>(r.end - base));
  }
  return std::fclose(f) == 0 ? xoar::Status::Ok()
                             : xoar::InternalError("cannot write " + path);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(p, 0.0, 1.0) *
                      static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t LatencyHistogram::Index(std::uint64_t ns) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (ns < kSub) {
    return ns;
  }
  const int exponent = 63 - __builtin_clzll(ns);  // >= kSubBits
  const std::uint64_t sub = (ns >> (exponent - kSubBits)) & (kSub - 1);
  return (static_cast<std::size_t>(exponent - kSubBits + 1) << kSubBits) + sub;
}

std::uint64_t LatencyHistogram::LowerBound(std::size_t index) {
  constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  if (index < kSub) {
    return index;
  }
  const int exponent = static_cast<int>(index >> kSubBits) + kSubBits - 1;
  return (kSub + (index & (kSub - 1))) << (exponent - kSubBits);
}

void LatencyHistogram::Add(Nanos ns) {
  const double scaled = std::max(static_cast<double>(ns) * scale_, 0.0);
  ++buckets_[std::min(Index(static_cast<std::uint64_t>(scaled)),
                      kBuckets - 1)];
  ++count_;
}

double LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0 || static_cast<double>(before + buckets_[i]) < target) {
      before += buckets_[i];
      continue;
    }
    const double lo = static_cast<double>(LowerBound(i));
    const double hi = static_cast<double>(LowerBound(i + 1));
    const double frac = (target - static_cast<double>(before)) /
                        static_cast<double>(buckets_[i]);
    return lo + (hi - lo) * frac;
  }
  return static_cast<double>(LowerBound(kBuckets - 1));
}

double SpeedProbe::Speed() {
  constexpr int kSteps = 40000;
  const Nanos start = NowNs();
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    std::uint64_t& slot = table_[(state_ >> 11) & (table_.size() - 1)];
    acc += slot;
    slot = acc ^ state_;
  }
  table_[0] += acc;  // keeps the walk observable
  return kNominalSeconds / std::max(ToSeconds(NowNs() - start), 1e-9);
}

void Fnv64::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void Fnv64::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
}

void AddAudit(const xoar::AuditLog& audit, Fnv64* digest) {
  for (const xoar::AuditEvent& event : audit.events()) {
    digest->Add(event.Serialize());
  }
}

WorkCounters WorkCounters::Since(const WorkCounters& start) const {
  WorkCounters delta;
  for (int i = 0; i < kWorkCounterCount; ++i) {
    delta.v[i] = i == kXsNodes ? v[i] : v[i] - start.v[i];
  }
  return delta;
}

void AddHostCounters(xoar::Simulator& sim, xoar::Hypervisor& hv,
                     xoar::XenStoreService& xs, xoar::Obs& obs,
                     WorkCounters* counters) {
  xoar::MetricRegistry& metrics = obs.metrics();
  auto counter = [&metrics](std::string_view name) {
    return metrics.GetCounter(name)->value();
  };
  std::array<std::uint64_t, kWorkCounterCount>& v = counters->v;
  v[kSimEvents] += sim.EventsExecuted();
  v[kHypercalls] += hv.TotalHypercalls();
  v[kGrantMaps] += counter("hv.grant.maps");
  v[kEvtchnSends] += counter("hv.evtchn.sends");
  v[kTableScans] += hv.domain_table_scans();
  v[kXsRequests] += xs.requests_processed();
  v[kXsFanoutOps] += counter("xs.shard.fanout_ops");
  v[kXsLogicRestarts] += xs.logic_restarts();
  v[kXsWatchFires] += counter("xenstore.store.watch_fires");
  v[kXsWrites] += counter("xenstore.store.writes");
  v[kXsTxStarted] += counter("xenstore.store.tx_started");
  v[kXsTxCommitted] += counter("xenstore.store.tx_committed");
  v[kXsNodes] += xs.store().NodeCount();
  v[kBlkRequests] += counter("BlkBack.ring.requests");
  v[kNetFrames] +=
      counter("NetBack.ring.tx_frames") + counter("NetBack.ring.rx_frames");
  v[kDrvConnects] +=
      counter("BlkBack.vbd.connects") + counter("NetBack.vif.connects");
  v[kFrontRetries] +=
      counter("BlkFront.retry.attempts") + counter("NetFront.retry.attempts");
  // One `<component>.microreboot.restarts` counter per restartable shard.
  constexpr std::string_view kRestarts = ".microreboot.restarts";
  for (const auto& c : metrics.Snapshot().counters) {
    if (c.name.size() > kRestarts.size() &&
        c.name.compare(c.name.size() - kRestarts.size(), kRestarts.size(),
                       kRestarts) == 0) {
      v[kMicroreboots] += c.value;
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
