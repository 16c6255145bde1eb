#include "src/obs/trace.h"

#include <algorithm>
#include <utility>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace xoar {

std::string_view TraceCategoryName(TraceCategory cat) {
  switch (cat) {
    case TraceCategory::kHypercall:
      return "hypercall";
    case TraceCategory::kEvtchn:
      return "evtchn";
    case TraceCategory::kGrant:
      return "grant";
    case TraceCategory::kXenStore:
      return "xenstore";
    case TraceCategory::kBoot:
      return "boot";
    case TraceCategory::kMicroreboot:
      return "microreboot";
    case TraceCategory::kDriver:
      return "driver";
    case TraceCategory::kWatchdog:
      return "watchdog";
    case TraceCategory::kCount:
      break;
  }
  return "unknown";
}

Tracer::Tracer(const Simulator* sim, std::size_t capacity) : sim_(sim) {
  ring_.resize(std::max<std::size_t>(capacity, 1));
}

void Tracer::SetTrackName(std::uint32_t track, std::string name) {
  track_names_[track] = std::move(name);
}

Tracer::SpanId Tracer::BeginSpan(TraceCategory cat, std::string name,
                                 std::uint32_t track) {
  if (!enabled_) {
    return kInvalidSpan;
  }
  const SpanId id = next_span_++;
  open_spans_.emplace(id, OpenSpan{cat, std::move(name), NowTs(), track});
  return id;
}

void Tracer::EndSpan(SpanId id) {
  if (id == kInvalidSpan) {
    return;
  }
  auto it = open_spans_.find(id);
  if (it == open_spans_.end()) {
    return;  // tracer disabled between Begin and End, or double-ended
  }
  OpenSpan open = std::move(it->second);
  open_spans_.erase(it);
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.cat = open.cat;
  event.name = std::move(open.name);
  event.ts = open.begin;
  const SimTime now = NowTs();
  event.dur = now > open.begin ? now - open.begin : 0;
  event.track = open.track;
  Push(std::move(event));
}

void Tracer::Span(TraceCategory cat, std::string_view name, SimTime begin,
                  SimTime end, std::uint32_t track) {
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.cat = cat;
  event.name = std::string(name);
  event.ts = begin;
  event.dur = end > begin ? end - begin : 0;
  event.track = track;
  Push(std::move(event));
}

void Tracer::Op(TraceCategory cat, std::string_view name,
                std::uint32_t track) {
  if (!enabled_) {
    return;
  }
  const SimTime now = NowTs();
  Span(cat, name, now, now, track);
}

void Tracer::Instant(TraceCategory cat, std::string_view name,
                     std::uint32_t track) {
  if (!enabled_) {
    return;
  }
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.cat = cat;
  event.name = std::string(name);
  event.ts = NowTs();
  event.track = track;
  Push(std::move(event));
}

void Tracer::Push(TraceEvent event) {
  event.seq = next_seq_++;
  if (sink_ != nullptr) {
    sink_->OnTraceEvent(event);
  }
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = std::move(event);
    ++size_;
  } else {
    ring_[head_] = std::move(event);  // overwrite the oldest
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
  }
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> events;
  events.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return events;
}

void Tracer::Clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  open_spans_.clear();
}

namespace {

// trace_event timestamps are microseconds; print ns-resolution fractions
// without float formatting so output is deterministic and exact.
std::string MicrosFromNanos(std::uint64_t ns) {
  const std::uint64_t whole = ns / 1000;
  const std::uint64_t frac = ns % 1000;
  if (frac == 0) {
    return StrFormat("%llu", static_cast<unsigned long long>(whole));
  }
  return StrFormat("%llu.%03llu", static_cast<unsigned long long>(whole),
                   static_cast<unsigned long long>(frac));
}

}  // namespace

std::string Tracer::ToChromeJson() const {
  std::string out;
  out.append("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
  bool first = true;
  auto separator = [&] {
    if (!first) {
      out.append(",\n");
    }
    first = false;
  };
  // Track-name metadata first so viewers label rows before events arrive.
  for (const auto& [track, name] : track_names_) {
    separator();
    out.append(
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": ");
    out.append(StrFormat("%u", track));
    out.append(", \"args\": {\"name\": ");
    AppendJsonString(&out, name);
    out.append("}}");
  }
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& e = ring_[(head_ + i) % ring_.size()];
    separator();
    out.append("{\"name\": ");
    AppendJsonString(&out, e.name);
    out.append(", \"cat\": ");
    AppendJsonString(&out, TraceCategoryName(e.cat));
    if (e.phase == TraceEvent::Phase::kComplete) {
      out.append(", \"ph\": \"X\", \"ts\": ");
      out.append(MicrosFromNanos(e.ts));
      out.append(", \"dur\": ");
      out.append(MicrosFromNanos(e.dur));
    } else {
      out.append(", \"ph\": \"i\", \"s\": \"t\", \"ts\": ");
      out.append(MicrosFromNanos(e.ts));
    }
    out.append(StrFormat(", \"pid\": 1, \"tid\": %u}", e.track));
  }
  out.append("\n]\n}\n");
  return out;
}

Status Tracer::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ToChromeJson());
}

}  // namespace xoar
