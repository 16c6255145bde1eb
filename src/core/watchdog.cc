#include "src/core/watchdog.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {
namespace {

// Escalation: detections while the sliding-window history holds fewer than
// this many entries use the fast (recovery-box) path; after that, the slow
// full-renegotiation path.
constexpr int kFastRestartsBeforeSlow = 2;
// Quarantine once a detection would push the sliding-window history past
// this budget — bounded restarts, not a restart storm.
constexpr int kMaxRestartsInWindow = 5;
constexpr SimDuration kBudgetWindow = 10 * kSecond;

}  // namespace

Watchdog::Watchdog(Simulator* sim, Hypervisor* hv, RestartEngine* engine,
                   AuditLog* audit, Obs* obs)
    : sim_(sim), hv_(hv), engine_(engine), audit_(audit), obs_(obs) {}

Status Watchdog::Supervise(const std::string& name) {
  if (entries_.count(name) > 0) {
    return AlreadyExistsError(
        StrFormat("%s is already supervised", name.c_str()));
  }
  XOAR_ASSIGN_OR_RETURN(DomainId domain, engine_->DomainOf(name));
  XOAR_ASSIGN_OR_RETURN(RestartEngine::Component component,
                        engine_->Find(name));
  const auto it = entries_.try_emplace(name, component).first;
  Entry& entry = it->second;
  entry.name = &it->first;
  entry.domain = domain;
  entry.last_beat = sim_->Now();
  entry.m_beats =
      obs_->metrics().GetCounter(MetricName(name, "watchdog", "beats"));
  entry.m_hangs =
      obs_->metrics().GetCounter(MetricName(name, "watchdog", "hangs"));
  entry.m_hangs_absorbed = obs_->metrics().GetCounter(
      MetricName(name, "watchdog", "hangs_absorbed"));
  entry.m_deaths =
      obs_->metrics().GetCounter(MetricName(name, "watchdog", "deaths"));
  entry.m_restarts =
      obs_->metrics().GetCounter(MetricName(name, "watchdog", "restarts"));
  entry.m_quarantined =
      obs_->metrics().GetGauge(MetricName(name, "watchdog", "quarantined"));
  entry.m_quarantined->Set(0.0);
  // Detection sits just under the timeout (tens of ms); recovery spans the
  // 140/260 ms downtime windows. One bracket covers both: 1 ms .. ~2 s.
  entry.m_detection_ms = obs_->metrics().GetHistogram(
      MetricName(name, "watchdog", "detection_ms"),
      Histogram::ExponentialBounds(1.0, 2.0, 12));
  entry.m_recovery_ms = obs_->metrics().GetHistogram(
      MetricName(name, "watchdog", "recovery_ms"),
      Histogram::ExponentialBounds(1.0, 2.0, 12));
  // The supervised component's service loop, beating while it can serve.
  entry.emitter = std::make_unique<PeriodicTimer>(
      sim_, kHeartbeatInterval, [this, &entry] { RecordBeat(entry); });
  entry.emitter->Start();
  ScheduleDeadline(entry, sim_->Now() + kHeartbeatTimeout);
  return Status::Ok();
}

void Watchdog::RecordBeat(Entry& entry) {
  if (entry.quarantined) {
    return;
  }
  if (entry.component.restarting()) {
    if (entry.hang_pending) {
      // A restart someone else initiated (e.g. a fault-injected crash of
      // this shard) resets the stalled service loop before the deadline
      // could fire: the hang is absorbed, not detected.
      entry.hang_pending = false;
      entry.hang_until = 0;
      ++hangs_absorbed_;
      entry.m_hangs_absorbed->Increment();
    }
    // Recovery is already underway; keep the deadline base fresh so the
    // restart's completion instant cannot tie with a deadline check and
    // read the pre-restart last_beat as a second, spurious failure.
    entry.last_beat = sim_->Now();
    return;
  }
  const Domain* dom = hv_->domain(entry.domain);
  if (dom == nullptr || dom->state() != DomainState::kRunning) {
    return;
  }
  const SimTime now = sim_->Now();
  if (now < entry.hang_until) {
    return;  // injected stall: the service loop is wedged
  }
  entry.last_beat = now;
  entry.m_beats->Increment();
  if (entry.span != Tracer::kInvalidSpan) {
    // First beat after a detection: recovery is complete.
    entry.m_recovery_ms->Observe(
        static_cast<double>(now - entry.detected_at) /
        static_cast<double>(kMillisecond));
    obs_->tracer().EndSpan(entry.span);
    entry.span = Tracer::kInvalidSpan;
  }
}

void Watchdog::ScheduleDeadline(Entry& entry, SimTime at) {
  const std::uint64_t generation = entry.deadline_generation;
  sim_->ScheduleAt(at, [this, &entry, generation] {
    CheckDeadline(entry, generation);
  });
}

void Watchdog::CheckDeadline(Entry& entry, std::uint64_t generation) {
  if (entry.quarantined || generation != entry.deadline_generation) {
    return;  // this chain was invalidated; a newer one (if any) owns it
  }
  const SimTime now = sim_->Now();
  const SimTime deadline = entry.last_beat + kHeartbeatTimeout;
  if (now < deadline) {
    // Beats are fresh; sleep until the current beat would go stale.
    ScheduleDeadline(entry, deadline);
    return;
  }
  if (entry.component.restarting()) {
    // A restart (ours or a fault-injected crash cycle) legitimately
    // silences heartbeats; grace-extend rather than double-trigger.
    ScheduleDeadline(entry, now + kHeartbeatTimeout);
    return;
  }
  HandleFailure(entry);
}

void Watchdog::HandleFailure(Entry& entry) {
  const std::string& name = *entry.name;
  const SimTime now = sim_->Now();
  const Domain* dom = hv_->domain(entry.domain);
  const bool dead = dom == nullptr || dom->state() == DomainState::kDead;
  const bool injected_hang = entry.hang_pending && !dead;
  const char* cause = dead ? "dead-domain" : "missed-heartbeat";
  // For an injected hang the stall began at hang_start; otherwise the
  // earliest the failure can be dated is the last good heartbeat.
  const SimDuration latency =
      now - (injected_hang ? entry.hang_start : entry.last_beat);

  // Restart budget over the sliding window.
  while (!entry.history.empty() &&
         entry.history.front() + kBudgetWindow <= now) {
    entry.history.pop_front();
  }
  if (static_cast<int>(entry.history.size()) >=
      kMaxRestartsInWindow) {
    if (dead) {
      ++deaths_detected_;
      entry.m_deaths->Increment();
    } else {
      ++hangs_detected_;
      entry.m_hangs->Increment();
    }
    entry.m_detection_ms->Observe(static_cast<double>(latency) /
                                  static_cast<double>(kMillisecond));
    if (injected_hang) {
      max_hang_detection_latency_ =
          std::max(max_hang_detection_latency_, latency);
    }
    entry.hang_until = 0;
    entry.hang_pending = false;
    Quarantine(entry, cause);
    return;
  }

  const bool fast = static_cast<int>(entry.history.size()) <
                    kFastRestartsBeforeSlow;
  Status status = engine_->RestartNow(name, fast);
  if (!status.ok()) {
    // Transient refusal (e.g. the domain is paused); keep watching.
    XLOG(kWarning) << "[watchdog] restart of " << name
                   << " refused, retrying next deadline: " << status;
    ScheduleDeadline(entry, now + kHeartbeatTimeout);
    return;
  }

  if (dead) {
    ++deaths_detected_;
    entry.m_deaths->Increment();
  } else {
    ++hangs_detected_;
    entry.m_hangs->Increment();
  }
  entry.m_detection_ms->Observe(static_cast<double>(latency) /
                                static_cast<double>(kMillisecond));
  if (injected_hang) {
    max_hang_detection_latency_ =
        std::max(max_hang_detection_latency_, latency);
  }
  // The microreboot resets the service loop, so any injected stall dies
  // with the old instance.
  entry.hang_until = 0;
  entry.hang_pending = false;
  if (entry.span == Tracer::kInvalidSpan) {
    entry.span = obs_->tracer().BeginSpan(
        TraceCategory::kWatchdog,
        StrFormat("recover:%s (%s)", name.c_str(), cause),
        entry.domain.value());
    entry.detected_at = now;
  }
  entry.history.push_back(now);
  ++auto_restarts_;
  entry.m_restarts->Increment();
  RecordAudit(AuditEventKind::kWatchdogRestart, entry,
              StrFormat("%s cause=%s grade=%s", name.c_str(), cause,
                        fast ? "fast" : "slow"));
  // The restart grade is a *decision* (chosen from restart history), so it
  // goes into the trace stream the replay journal records: a divergence
  // here pinpoints a changed supervision policy, not just its downstream
  // effects.
  obs_->tracer().Instant(TraceCategory::kWatchdog,
                         StrFormat("escalate:%s grade=%s cause=%s",
                                   name.c_str(), fast ? "fast" : "slow",
                                   cause),
                         entry.domain.value());
  ScheduleDeadline(entry, now + kHeartbeatTimeout);
}

void Watchdog::Quarantine(Entry& entry, const std::string& cause) {
  const std::string& name = *entry.name;
  entry.quarantined = true;
  ++entry.deadline_generation;  // kill the live deadline chain
  if (entry.emitter != nullptr) {
    entry.emitter->Stop();
  }
  if (entry.span != Tracer::kInvalidSpan) {
    obs_->tracer().EndSpan(entry.span);
    entry.span = Tracer::kInvalidSpan;
  }
  entry.m_quarantined->Set(1.0);
  ++quarantines_;
  obs_->tracer().Instant(TraceCategory::kWatchdog, "quarantine:" + name,
                         entry.domain.value());
  RecordAudit(AuditEventKind::kShardQuarantined, entry,
              StrFormat("%s cause=%s budget=%d", name.c_str(), cause.c_str(),
                        kMaxRestartsInWindow));
  XLOG(kWarning) << "[watchdog] " << name
                 << " exhausted its restart budget; quarantined (" << cause
                 << ")";
  // Degraded mode: the component stops pretending to serve, so peers see
  // a deterministic UNAVAILABLE instead of silence.
  entry.component.Suspend();
}

Status Watchdog::InjectHang(const std::string& name, SimDuration duration) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return NotFoundError(StrFormat("%s is not supervised", name.c_str()));
  }
  Entry& entry = it->second;
  if (entry.quarantined) {
    return FailedPreconditionError(
        StrFormat("%s is quarantined", name.c_str()));
  }
  if (entry.component.restarting()) {
    return FailedPreconditionError(
        StrFormat("%s is mid-restart", name.c_str()));
  }
  const Domain* dom = hv_->domain(entry.domain);
  if (dom == nullptr || dom->state() != DomainState::kRunning) {
    return FailedPreconditionError(
        StrFormat("%s's domain is not running", name.c_str()));
  }
  const SimTime now = sim_->Now();
  if (entry.hang_pending || now < entry.hang_until) {
    return FailedPreconditionError(
        StrFormat("%s is already hung", name.c_str()));
  }
  entry.hang_start = now;
  entry.hang_until = now + duration;
  entry.hang_pending = true;
  obs_->tracer().Instant(TraceCategory::kWatchdog, "hang:" + name,
                         entry.domain.value());
  return Status::Ok();
}

Status Watchdog::Unquarantine(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return NotFoundError(StrFormat("%s is not supervised", name.c_str()));
  }
  Entry& entry = it->second;
  if (!entry.quarantined) {
    return FailedPreconditionError(
        StrFormat("%s is not quarantined", name.c_str()));
  }
  // One slow, from-scratch restart brings the component back; only then is
  // quarantine actually lifted.
  XOAR_RETURN_IF_ERROR(engine_->RestartNow(name, /*fast=*/false));
  entry.quarantined = false;
  ++entry.deadline_generation;
  entry.history.clear();
  entry.hang_until = 0;
  entry.hang_pending = false;
  entry.m_quarantined->Set(0.0);
  RecordAudit(AuditEventKind::kWatchdogRestart, entry,
              StrFormat("%s cause=unquarantine grade=slow", name.c_str()));
  entry.last_beat = sim_->Now();
  entry.emitter->Start();
  ScheduleDeadline(entry, sim_->Now() + kHeartbeatTimeout);
  return Status::Ok();
}

bool Watchdog::IsSupervised(const std::string& name) const {
  return entries_.count(name) > 0;
}

bool Watchdog::IsQuarantined(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.quarantined;
}

void Watchdog::RecordAudit(AuditEventKind kind, const Entry& entry,
                           const std::string& detail) {
  AuditEvent event;
  event.time = sim_->Now();
  event.kind = kind;
  event.object = entry.domain;
  event.detail = detail;
  audit_->Record(std::move(event));
}

}  // namespace xoar
