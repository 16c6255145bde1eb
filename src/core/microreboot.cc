#include "src/core/microreboot.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

RestartEngine::RestartEngine(Hypervisor* hv, Simulator* sim,
                             SnapshotManager* snapshots, DomainId controller,
                             AuditLog* audit, Obs* obs)
    : hv_(hv),
      sim_(sim),
      snapshots_(snapshots),
      controller_(controller),
      audit_(audit),
      obs_(obs) {}

Status RestartEngine::Register(const std::string& name, DomainId domain,
                               ComponentHooks hooks) {
  if (components_.count(name) > 0) {
    return AlreadyExistsError(
        StrFormat("component %s already registered", name.c_str()));
  }
  Entry entry;
  entry.domain = domain;
  entry.hooks = std::move(hooks);
  if (entry.hooks.state != nullptr) {
    XOAR_RETURN_IF_ERROR(snapshots_->TakeSnapshot(domain, entry.hooks.state));
  }
  entry.m_restarts = obs_->metrics().GetCounter(
      MetricName(name, "microreboot", "restarts"));
  entry.m_skipped = obs_->metrics().GetCounter(
      MetricName(name, "microreboot", "skipped"));
  entry.m_box_rejected = obs_->metrics().GetCounter(
      MetricName(name, "microreboot", "box_rejected"));
  // Downtime buckets: 1ms .. ~2s in x2 steps, bracketing the paper's
  // 140/260 ms windows.
  entry.m_downtime_ms = obs_->metrics().GetHistogram(
      MetricName(name, "microreboot", "downtime_ms"),
      Histogram::ExponentialBounds(1.0, 2.0, 12));
  entry.m_up = obs_->metrics().GetGauge(MetricName(name, "microreboot", "up"));
  entry.m_up->Set(1.0);
  components_.emplace(name, std::move(entry));
  return Status::Ok();
}

Status RestartEngine::DoRestart(Entry& entry, const std::string& name,
                                bool fast) {
  if (entry.in_progress) {
    return FailedPreconditionError(
        StrFormat("%s is already mid-restart", name.c_str()));
  }
  const Domain* dom = hv_->domain(entry.domain);
  const bool domain_dead =
      dom != nullptr && dom->state() == DomainState::kDead;
  if (dom == nullptr ||
      (dom->state() != DomainState::kRunning && !domain_dead)) {
    return FailedPreconditionError(
        StrFormat("%s's domain is not running", name.c_str()));
  }

  // Fast path only: validate the recovery box before trusting it. A box
  // that fails its checksums is discarded and this cycle downgrades to the
  // slow (full-renegotiation) path.
  if (fast) {
    RecoveryBox& box = snapshots_->recovery_box(entry.domain);
    Status valid = box.Validate();
    if (!valid.ok()) {
      XLOG(kWarning) << "[restart] " << name
                     << " recovery box rejected, falling back to slow path: "
                     << valid;
      box.Clear();
      fast = false;
      ++entry.boxes_rejected;
      entry.m_box_rejected->Increment();
      AuditEvent event;
      event.time = sim_->Now();
      event.kind = AuditEventKind::kRecoveryBoxRejected;
      event.object = entry.domain;
      event.detail = StrFormat("%s cause=corrupt-box", name.c_str());
      audit_->Record(std::move(event));
      // Journal the downgrade decision (fast -> slow) so replay catches a
      // run whose box validation decided differently, at the decision
      // itself rather than in the longer restart window that follows.
      obs_->tracer().Instant(TraceCategory::kMicroreboot,
                             "box-reject:" + name, entry.domain.value());
    }
  }

  entry.in_progress = true;
  entry.span = obs_->tracer().BeginSpan(
      TraceCategory::kMicroreboot,
      StrFormat("restart:%s (%s)", name.c_str(), fast ? "fast" : "slow"),
      entry.domain.value());

  // 1. Orderly suspend: the component closes its backend state while its
  //    domain can still issue XenStore writes. A dead domain gets no
  //    orderly teardown — the crash already tore its channels down.
  if (entry.hooks.suspend && !domain_dead) {
    entry.hooks.suspend();
  }
  // 2. The hypervisor tears down channels; peers observe the outage. The
  //    up gauge drops with it and only returns to 1 once the resume hook
  //    has run — a failed CompleteReboot leaves it at 0.
  XOAR_RETURN_IF_ERROR(hv_->BeginReboot(controller_, entry.domain));
  entry.m_up->Set(0.0);

  // 3. Rollback to the post-init snapshot. The recovery box survives; the
  //    fast path uses it to skip part of the renegotiation.
  SimDuration downtime = fast ? kFastRestartDowntime : kSlowRestartDowntime;
  if (entry.hooks.state != nullptr) {
    StatusOr<SimDuration> rollback_cost = snapshots_->Rollback(entry.domain);
    if (rollback_cost.ok()) {
      downtime += *rollback_cost;
    }
  }
  entry.last_downtime = downtime;

  // 4. After the device downtime, the domain resumes and re-advertises.
  const DomainId domain = entry.domain;
  sim_->ScheduleAfter(downtime, [this, name, domain] {
    auto it = components_.find(name);
    if (it == components_.end() || it->second.domain != domain) {
      return;
    }
    Entry& e = it->second;
    Status status = hv_->CompleteReboot(controller_, e.domain);
    if (!status.ok()) {
      XLOG(kWarning) << "[restart] complete-reboot failed for " << name << ": "
                     << status;
      e.in_progress = false;
      obs_->tracer().EndSpan(e.span);
      e.span = Tracer::kInvalidSpan;
      return;
    }
    if (e.hooks.resume) {
      e.hooks.resume();
    }
    e.m_up->Set(1.0);
    e.in_progress = false;
    ++e.restarts;
    e.m_restarts->Increment();
    e.m_downtime_ms->Observe(static_cast<double>(e.last_downtime) /
                             static_cast<double>(kMillisecond));
    obs_->tracer().EndSpan(e.span);
    e.span = Tracer::kInvalidSpan;
    AuditEvent event;
    event.time = sim_->Now();
    event.kind = AuditEventKind::kShardRestarted;
    event.object = e.domain;
    event.detail = name;
    audit_->Record(std::move(event));
  });
  return Status::Ok();
}

Status RestartEngine::RestartNow(const std::string& name, bool fast) {
  auto it = components_.find(name);
  if (it == components_.end()) {
    return NotFoundError(StrFormat("no component %s", name.c_str()));
  }
  return DoRestart(it->second, name, fast);
}

Status RestartEngine::EnablePeriodicRestarts(const std::string& name,
                                             SimDuration interval, bool fast) {
  auto it = components_.find(name);
  if (it == components_.end()) {
    return NotFoundError(StrFormat("no component %s", name.c_str()));
  }
  Entry& entry = it->second;
  entry.fast = fast;
  entry.timer = std::make_unique<PeriodicTimer>(
      sim_, interval, [this, name] {
        auto entry_it = components_.find(name);
        if (entry_it == components_.end()) {
          return;
        }
        Status status = DoRestart(entry_it->second, name, entry_it->second.fast);
        if (!status.ok()) {
          ++entry_it->second.skipped;
          entry_it->second.m_skipped->Increment();
          XLOG(kDebug) << "[restart] skipped cycle for " << name << ": "
                       << status;
        }
      });
  entry.timer->Start();
  return Status::Ok();
}

Status RestartEngine::DisableRestarts(const std::string& name) {
  auto it = components_.find(name);
  if (it == components_.end()) {
    return NotFoundError(StrFormat("no component %s", name.c_str()));
  }
  it->second.timer.reset();
  return Status::Ok();
}

bool RestartEngine::IsRestarting(const std::string& name) const {
  auto it = components_.find(name);
  return it != components_.end() && it->second.in_progress;
}

int RestartEngine::RestartCount(const std::string& name) const {
  auto it = components_.find(name);
  return it == components_.end() ? 0 : it->second.restarts;
}

SimDuration RestartEngine::LastDowntime(const std::string& name) const {
  auto it = components_.find(name);
  return it == components_.end() ? 0 : it->second.last_downtime;
}

int RestartEngine::SkippedCycles(const std::string& name) const {
  auto it = components_.find(name);
  return it == components_.end() ? 0 : it->second.skipped;
}

int RestartEngine::BoxesRejected(const std::string& name) const {
  auto it = components_.find(name);
  return it == components_.end() ? 0 : it->second.boxes_rejected;
}

int RestartEngine::TotalBoxesRejected() const {
  int total = 0;
  for (const auto& [name, entry] : components_) {
    total += entry.boxes_rejected;
  }
  return total;
}

StatusOr<DomainId> RestartEngine::DomainOf(const std::string& name) const {
  auto it = components_.find(name);
  if (it == components_.end()) {
    return NotFoundError(StrFormat("no component %s", name.c_str()));
  }
  return it->second.domain;
}

StatusOr<RestartEngine::Component> RestartEngine::Find(
    const std::string& name) const {
  auto it = components_.find(name);
  if (it == components_.end()) {
    return NotFoundError(StrFormat("no component %s", name.c_str()));
  }
  return Component(&it->second);
}

}  // namespace xoar
