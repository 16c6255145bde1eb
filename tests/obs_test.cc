// Unit tests for the observability layer (src/obs): metric registry
// correctness (bucket boundaries, merge, JSON round-trip through the
// bundled parser), tracer span nesting and ring-buffer overflow, and the
// end-to-end platform story: a traced XoarPlatform::Boot() produces a
// valid Chrome trace with the span categories the evaluation needs.
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/base/log.h"
#include "src/core/xoar_platform.h"
#include "src/base/json.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"

namespace xoar {
namespace {

TEST(MetricNameTest, ComposesShardSubsystemMetric) {
  EXPECT_EQ(MetricName("NetBack", "ring", "tx_frames"),
            "NetBack.ring.tx_frames");
  EXPECT_EQ(MetricName("hv", "evtchn", "sends"), "hv.evtchn.sends");
}

TEST(CounterTest, MonotonicAndStableHandles) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("hv.hypercall.total");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Get-or-create returns the same instance; hot paths cache the pointer.
  EXPECT_EQ(registry.GetCounter("hv.hypercall.total"), c);
  EXPECT_EQ(c->name(), "hv.hypercall.total");
}

TEST(GaugeTest, SetAndAdd) {
  MetricRegistry registry;
  Gauge* g = registry.GetGauge("hv.domain.live");
  g->Set(3);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(g->value(), 2.0);
  EXPECT_EQ(registry.GetGauge("hv.domain.live"), g);
}

TEST(HistogramTest, BucketBoundariesAreLessOrEqual) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("t.lat.ns", {1.0, 2.0, 4.0});
  // Values exactly on a bound land in that bound's bucket (le semantics).
  h->Observe(1.0);   // bucket 0 (<= 1)
  h->Observe(1.5);   // bucket 1 (<= 2)
  h->Observe(2.0);   // bucket 1
  h->Observe(4.0);   // bucket 2 (<= 4)
  h->Observe(4.01);  // overflow
  ASSERT_EQ(h->bucket_counts().size(), 4u);
  EXPECT_EQ(h->bucket_counts()[0], 1u);
  EXPECT_EQ(h->bucket_counts()[1], 2u);
  EXPECT_EQ(h->bucket_counts()[2], 1u);
  EXPECT_EQ(h->bucket_counts()[3], 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 1.0 + 1.5 + 2.0 + 4.0 + 4.01);
}

TEST(HistogramTest, PercentileInterpolatesAndClamps) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("t.p.ns", {10.0, 100.0, 1000.0});
  for (int i = 0; i < 100; ++i) {
    h->Observe(50.0);  // all in (10, 100]
  }
  EXPECT_GT(h->Percentile(0.5), 10.0);
  EXPECT_LE(h->Percentile(0.5), 100.0);
  h->Observe(5000.0);  // overflow clamps to the last bound
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 1000.0);
}

TEST(HistogramTest, MergeRequiresIdenticalBounds) {
  MetricRegistry a_reg, b_reg, c_reg;
  Histogram* a = a_reg.GetHistogram("m", {1.0, 2.0});
  Histogram* b = b_reg.GetHistogram("m", {1.0, 2.0});
  Histogram* c = c_reg.GetHistogram("m", {1.0, 3.0});
  a->Observe(0.5);
  b->Observe(1.5);
  ASSERT_TRUE(a->Merge(*b).ok());
  EXPECT_EQ(a->count(), 2u);
  EXPECT_EQ(a->bucket_counts()[0], 1u);
  EXPECT_EQ(a->bucket_counts()[1], 1u);
  EXPECT_FALSE(a->Merge(*c).ok());
  EXPECT_EQ(a->count(), 2u);  // failed merge leaves the target untouched
}

TEST(HistogramTest, ExponentialBoundsShape) {
  std::vector<double> bounds = Histogram::ExponentialBounds(100.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 100.0);
  EXPECT_DOUBLE_EQ(bounds[1], 200.0);
  EXPECT_DOUBLE_EQ(bounds[2], 400.0);
  EXPECT_DOUBLE_EQ(bounds[3], 800.0);
}

TEST(RegistryTest, SnapshotFindsEveryKind) {
  MetricRegistry registry;
  registry.GetCounter("a.b.c")->Increment(7);
  registry.GetGauge("a.b.g")->Set(1.5);
  registry.GetHistogram("a.b.h", {1.0})->Observe(0.5);
  MetricsSnapshot snap = registry.Snapshot(/*taken_at=*/123);
  EXPECT_EQ(snap.taken_at, 123u);
  ASSERT_NE(snap.FindCounter("a.b.c"), nullptr);
  EXPECT_EQ(snap.FindCounter("a.b.c")->value, 7u);
  ASSERT_NE(snap.FindGauge("a.b.g"), nullptr);
  EXPECT_DOUBLE_EQ(snap.FindGauge("a.b.g")->value, 1.5);
  ASSERT_NE(snap.FindHistogram("a.b.h"), nullptr);
  EXPECT_EQ(snap.FindHistogram("a.b.h")->count, 1u);
  EXPECT_EQ(snap.FindCounter("missing"), nullptr);
}

TEST(RegistryTest, JsonExportRoundTripsThroughParser) {
  MetricRegistry registry;
  registry.GetCounter("hv.hypercall.total")->Increment(42);
  registry.GetGauge("platform.boot.console_ready_s")->Set(5.25);
  Histogram* h =
      registry.GetHistogram("NetBack.microreboot.downtime_ms", {100.0, 200.0});
  h->Observe(140.0);
  h->Observe(260.0);

  const std::string json =
      MetricRegistry::ToJson(registry.Snapshot(999), "obs_test");
  StatusOr<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status();

  const JsonValue* context = doc->Find("context");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->Find("executable")->string(), "obs_test");
  EXPECT_DOUBLE_EQ(context->Find("sim_time_ns")->number(), 999.0);

  const JsonValue* benchmarks = doc->Find("benchmarks");
  ASSERT_NE(benchmarks, nullptr);
  ASSERT_TRUE(benchmarks->is_array());
  ASSERT_EQ(benchmarks->array().size(), 3u);
  std::set<std::string> run_types;
  for (const JsonValue& entry : benchmarks->array()) {
    run_types.insert(entry.Find("run_type")->string());
    if (entry.Find("run_type")->string() == "counter") {
      EXPECT_EQ(entry.Find("name")->string(), "hv.hypercall.total");
      EXPECT_DOUBLE_EQ(entry.Find("value")->number(), 42.0);
    }
    if (entry.Find("run_type")->string() == "histogram") {
      EXPECT_DOUBLE_EQ(entry.Find("count")->number(), 2.0);
    }
  }
  EXPECT_EQ(run_types,
            (std::set<std::string>{"counter", "gauge", "histogram"}));
}

TEST(TracerTest, DisabledRecordingIsANoOp) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.BeginSpan(TraceCategory::kBoot, "x"), Tracer::kInvalidSpan);
  tracer.Op(TraceCategory::kHypercall, "op");
  tracer.Instant(TraceCategory::kEvtchn, "i");
  tracer.Span(TraceCategory::kBoot, "s", 0, 10);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerTest, SpansNestAndCarrySimulatedTime) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.set_enabled(true);
  Tracer::SpanId outer = tracer.BeginSpan(TraceCategory::kBoot, "outer", 1);
  sim.RunFor(100);
  Tracer::SpanId inner =
      tracer.BeginSpan(TraceCategory::kMicroreboot, "inner", 1);
  sim.RunFor(50);
  tracer.EndSpan(inner);
  sim.RunFor(25);
  tracer.EndSpan(outer);

  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  // Inner closed first, so it enters the ring first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].ts, 100u);
  EXPECT_EQ(events[0].dur, 50u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].ts, 0u);
  EXPECT_EQ(events[1].dur, 175u);
  // Inner lies fully inside outer on the same track: nesting holds.
  EXPECT_GE(events[0].ts, events[1].ts);
  EXPECT_LE(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

TEST(TracerTest, RingOverflowKeepsNewestEvents) {
  Tracer tracer(nullptr, /*capacity=*/8);
  tracer.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    tracer.Op(TraceCategory::kXenStore, "op" + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.capacity(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "op12");  // oldest survivor
  EXPECT_EQ(events.back().name, "op19");   // newest
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // oldest-first order
  }
}

TEST(TracerTest, ChromeJsonHasTrackNamesAndValidPhases) {
  Simulator sim;
  Tracer tracer(&sim);
  tracer.set_enabled(true);
  tracer.SetTrackName(3, "dom3 netback");
  tracer.Span(TraceCategory::kBoot, "phase:netback", 0, 1500, 3);
  tracer.Instant(TraceCategory::kXenStore, "xs_tx_conflict", 3);

  StatusOr<JsonValue> doc = ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->Find("displayTimeUnit")->string(), "ms");
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array().size(), 3u);

  const JsonValue& meta = events->array()[0];
  EXPECT_EQ(meta.Find("ph")->string(), "M");
  EXPECT_EQ(meta.Find("name")->string(), "thread_name");
  EXPECT_EQ(meta.Find("args")->Find("name")->string(), "dom3 netback");
  EXPECT_DOUBLE_EQ(meta.Find("tid")->number(), 3.0);

  const JsonValue& span = events->array()[1];
  EXPECT_EQ(span.Find("ph")->string(), "X");
  EXPECT_EQ(span.Find("cat")->string(), "boot");
  EXPECT_DOUBLE_EQ(span.Find("ts")->number(), 0.0);
  EXPECT_DOUBLE_EQ(span.Find("dur")->number(), 1.5);  // 1500 ns = 1.5 us

  const JsonValue& instant = events->array()[2];
  EXPECT_EQ(instant.Find("ph")->string(), "i");
  EXPECT_EQ(instant.Find("cat")->string(), "xenstore");
}

// End-to-end: a traced XoarPlatform boot yields a loadable Chrome trace
// with at least 5 distinct span categories, and the instrumented hot paths
// leave nonzero counters behind — the ISSUE's acceptance bar.
TEST(PlatformObsTest, BootProducesTraceAndMetrics) {
  Logger::Get().set_level(LogLevel::kNone);
  XoarPlatform platform;
  platform.obs().tracer().set_enabled(true);
  ASSERT_TRUE(platform.Boot().ok());

  std::set<std::string> span_cats;
  for (const TraceEvent& event : platform.obs().tracer().Events()) {
    if (event.phase == TraceEvent::Phase::kComplete) {
      span_cats.insert(std::string(TraceCategoryName(event.cat)));
    }
  }
  EXPECT_GE(span_cats.size(), 5u) << "boot trace is missing span categories";
  EXPECT_TRUE(span_cats.count("boot"));
  EXPECT_TRUE(span_cats.count("hypercall"));
  EXPECT_TRUE(span_cats.count("xenstore"));

  MetricsSnapshot snap =
      platform.obs().metrics().Snapshot(platform.sim().Now());
  ASSERT_NE(snap.FindCounter("hv.hypercall.total"), nullptr);
  EXPECT_GT(snap.FindCounter("hv.hypercall.total")->value, 0u);
  ASSERT_NE(snap.FindCounter("xenstore.store.writes"), nullptr);
  EXPECT_GT(snap.FindCounter("xenstore.store.writes")->value, 0u);
  ASSERT_NE(snap.FindGauge("hv.domain.live"), nullptr);
  EXPECT_GT(snap.FindGauge("hv.domain.live")->value, 0.0);
  ASSERT_NE(snap.FindGauge("platform.boot.network_ready_s"), nullptr);
  EXPECT_GT(snap.FindGauge("platform.boot.network_ready_s")->value, 0.0);

  // The whole export parses back through the bundled JSON parser.
  const std::string json = MetricRegistry::ToJson(snap, "obs_test");
  EXPECT_TRUE(ParseJson(json).ok());
  EXPECT_TRUE(ParseJson(platform.obs().tracer().ToChromeJson()).ok());
}

TEST(PlatformObsTest, MicrorebootRecordsDowntimeHistogram) {
  Logger::Get().set_level(LogLevel::kNone);
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  ASSERT_TRUE(platform.restarts().RestartNow("NetBack", /*fast=*/true).ok());
  platform.Settle(FromSeconds(2));

  MetricsSnapshot snap = platform.obs().metrics().Snapshot();
  const auto* restarts = snap.FindCounter("NetBack.microreboot.restarts");
  ASSERT_NE(restarts, nullptr);
  EXPECT_EQ(restarts->value, 1u);
  const auto* downtime = snap.FindHistogram("NetBack.microreboot.downtime_ms");
  ASSERT_NE(downtime, nullptr);
  ASSERT_EQ(downtime->count, 1u);
  // Fast path: 140 ms device downtime plus rollback cost.
  EXPECT_GE(downtime->sum, 140.0);
  EXPECT_LT(downtime->sum, 1000.0);
}

}  // namespace
}  // namespace xoar
