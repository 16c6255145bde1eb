// Simulator event tracer: typed spans and instants in a bounded ring
// buffer, exported as Chrome `trace_event` JSON for chrome://tracing.
//
// The tracer records what the discrete-event simulation *did* — hypercalls,
// event-channel notifies, grant map/unmap, XenStore operations, shard boot
// phases, microreboot rollback windows — with simulated timestamps, so a
// recorded trace of `XoarPlatform::Boot()` shows the §5.2 dependency-
// parallel boot as overlapping spans on per-shard tracks.
//
// Deterministic-replay safety (see DESIGN.md §5b): the tracer is a pure
// observer. It never schedules simulator events, never reads the wall
// clock, and every timestamp comes from `Simulator::Now()`, so enabling or
// disabling tracing cannot change an execution, and two identical runs
// produce byte-identical exports.
//
// Cost model / thread-safety: single-threaded, like the simulator it
// observes. Recording is O(1) into a preallocated ring; when the ring is
// full the *oldest* event is overwritten (`dropped()` counts losses), so a
// long-running platform keeps the most recent window. Tracing is disabled
// by default — every record call is then a single branch — and is switched
// on per-platform via `Tracer::set_enabled(true)`.
#ifndef XOAR_SRC_OBS_TRACE_H_
#define XOAR_SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/sim/simulator.h"

namespace xoar {

// Fixed event taxonomy; the category string becomes the Chrome "cat" field
// (filterable in the chrome://tracing UI).
enum class TraceCategory : std::uint8_t {
  kHypercall = 0,  // privilege-checked hypervisor entry points
  kEvtchn,         // event-channel sends and deliveries
  kGrant,          // grant create/map/unmap/end
  kXenStore,       // store reads/writes/transactions/watch fires
  kBoot,           // §5.2 boot phases, one span per phase/shard
  kMicroreboot,    // §3.3 restart windows, suspend -> resume
  // Journals store the number (JournalRecord::kind) and `xoar_replay diff`
  // decodes old journals, so a removed value stays unused (6: scheduler).
  kDriver = 7,     // split-driver negotiation and ring service
  kWatchdog = 8,   // supervision: detection -> recovery windows
  kCount,
};

std::string_view TraceCategoryName(TraceCategory cat);

// One recorded event. kComplete events are Chrome "X" (a span with a
// duration, possibly zero); kInstant events are Chrome "i"; kMetadata names
// a track ("M"/thread_name).
struct TraceEvent {
  enum class Phase : std::uint8_t { kComplete, kInstant };
  Phase phase = Phase::kInstant;
  TraceCategory cat = TraceCategory::kHypercall;
  std::string name;
  SimTime ts = 0;        // simulated nanoseconds
  SimDuration dur = 0;   // kComplete only
  std::uint32_t track = 0;  // Chrome "tid"; by convention a DomainId value
  std::uint64_t seq = 0;    // global record order (FIFO tie-break)
};

// Receives every event the tracer records, at the moment it is recorded.
// Unlike the bounded ring (which keeps only the most recent window for
// chrome://tracing export), a sink sees the full stream — this is the hook
// the replay journal (src/replay) records from and verifies against. Sinks
// must be pure observers with respect to the simulation: recording an event
// may not schedule work or read any clock but the event's own timestamps.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnTraceEvent(const TraceEvent& event) = 0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;  // 16384 events

  // `sim` supplies timestamps; with no simulator attached all timestamps
  // are 0 (still usable for counting/structure tests).
  explicit Tracer(const Simulator* sim = nullptr,
                  std::size_t capacity = kDefaultCapacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_sim(const Simulator* sim) { sim_ = sim; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Attaches/detaches the full-stream observer (nullptr detaches). At most
  // one sink; the caller owns it and must outlive its attachment. The sink
  // fires only while the tracer is enabled, after the event's global seq is
  // assigned and regardless of ring-buffer eviction.
  void set_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

  // Names a track in the exported trace (Chrome thread_name metadata);
  // platforms register one track per shard domain.
  void SetTrackName(std::uint32_t track, std::string name);

  // --- Recording (all O(1); no-ops while disabled) ---

  using SpanId = std::uint64_t;
  static constexpr SpanId kInvalidSpan = 0;

  // Opens a span that closes at a later simulated time (boot phase,
  // microreboot window). The completed event enters the ring at EndSpan.
  // Spans opened on the same track and closed LIFO render nested.
  SpanId BeginSpan(TraceCategory cat, std::string name,
                   std::uint32_t track = 0);
  void EndSpan(SpanId id);

  // Records a complete span with explicit endpoints (callers that already
  // know both, e.g. the boot scheduler's precomputed phase windows).
  void Span(TraceCategory cat, std::string_view name, SimTime begin,
            SimTime end, std::uint32_t track = 0);

  // Records a zero-duration complete span at the current simulated time —
  // the shape used for hot-path operations (a hypercall or XenStore op is
  // instantaneous in simulated time but still wants span semantics).
  void Op(TraceCategory cat, std::string_view name, std::uint32_t track = 0);

  // Records a Chrome instant event ("i").
  void Instant(TraceCategory cat, std::string_view name,
               std::uint32_t track = 0);

  // --- Inspection / export ---

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t open_spans() const { return open_spans_.size(); }

  // Oldest-first copy of the ring contents.
  std::vector<TraceEvent> Events() const;

  // {"traceEvents": [...], "displayTimeUnit": "ms"} — loads directly in
  // chrome://tracing / Perfetto. Timestamps convert to microseconds (the
  // trace_event unit) with fractional precision so 1 ns resolution
  // survives. Deterministic for identical runs.
  std::string ToChromeJson() const;
  Status WriteJsonFile(const std::string& path) const;

  void Clear();

 private:
  struct OpenSpan {
    TraceCategory cat;
    std::string name;
    SimTime begin;
    std::uint32_t track;
  };

  SimTime NowTs() const { return sim_ != nullptr ? sim_->Now() : 0; }
  void Push(TraceEvent event);

  const Simulator* sim_;
  bool enabled_ = false;
  TraceSink* sink_ = nullptr;
  std::vector<TraceEvent> ring_;  // fixed capacity, allocated up front
  std::size_t head_ = 0;          // index of the oldest event
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
  SpanId next_span_ = 1;
  std::map<SpanId, OpenSpan> open_spans_;
  std::map<std::uint32_t, std::string> track_names_;
};

}  // namespace xoar

#endif  // XOAR_SRC_OBS_TRACE_H_
