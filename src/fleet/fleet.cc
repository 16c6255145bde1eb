#include "src/fleet/fleet.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  if (config_.hosts < 1) {
    config_.hosts = 1;
  }
  // Hosts exist (unbooted) from construction so callers can attach trace
  // sinks to a host's tracer before Boot (record/replay of one host's
  // event stream — see scenarios.h).
  hosts_.reserve(static_cast<std::size_t>(config_.hosts));
  for (int i = 0; i < config_.hosts; ++i) {
    hosts_.push_back(std::make_unique<XoarPlatform>(config_.host));
  }
  host_state_.resize(hosts_.size());

  m_hosts_ = metrics_.GetGauge("fleet.hosts");
  m_guests_ = metrics_.GetGauge("fleet.guests_placed");
  m_created_ = metrics_.GetCounter("fleet.admission.accepted");
  m_shed_ = metrics_.GetCounter("fleet.admission.shed");
  m_migrations_attempted_ = metrics_.GetCounter("fleet.migrations.attempted");
  m_migrations_completed_ = metrics_.GetCounter("fleet.migrations.completed");
  m_migrations_failed_ = metrics_.GetCounter("fleet.migrations.failed");
  m_migration_retries_ = metrics_.GetCounter("fleet.migrations.retries");
  m_stream_drop_aborts_ =
      metrics_.GetCounter("fleet.migrations.stream_drop_aborts");
  m_evacuations_started_ = metrics_.GetCounter("fleet.evacuations.started");
  m_evacuations_completed_ =
      metrics_.GetCounter("fleet.evacuations.completed");
  m_rebalance_moves_ = metrics_.GetCounter("fleet.rebalance.moves");
  m_invariant_violations_ = metrics_.GetGauge("fleet.invariant_violations");
  m_controller_supervised_ = metrics_.GetGauge("fleet.controller.supervised");
  m_max_load_ = metrics_.GetGauge("fleet.load.max_fraction");
  m_min_load_ = metrics_.GetGauge("fleet.load.min_fraction");
  m_hosts_->Set(static_cast<double>(config_.hosts));
}

Fleet::~Fleet() = default;

Status Fleet::Boot() {
  if (booted_) {
    return FailedPreconditionError("fleet already booted");
  }
  for (int i = 0; i < host_count(); ++i) {
    XOAR_RETURN_IF_ERROR(hosts_[i]->Boot());
  }
  SyncClocks();

  // The fleet controller: a small control domain on host 0, registered
  // with that host's RestartEngine and placed under its watchdog, so the
  // orchestrator is healed by the same machinery it drives.
  GuestSpec controller_spec;
  controller_spec.name = "fleet-controller";
  controller_spec.memory_mb = 64;
  controller_spec.vcpus = 1;
  controller_spec.with_net = false;
  controller_spec.with_disk = false;
  StatusOr<DomainId> controller = hosts_[0]->CreateGuest(controller_spec);
  if (!controller.ok()) {
    return InternalError(
        StrFormat("fleet controller creation failed: %s",
                  controller.status().ToString().c_str()));
  }
  controller_dom_ = *controller;
  XOAR_RETURN_IF_ERROR(hosts_[0]->restarts().Register(
      kControllerComponent, controller_dom_,
      RestartEngine::ComponentHooks{
          // The controller's orchestration scratch state is rebuilt from
          // the fleet records on resume; nothing to persist.
          .suspend = [] {}, .resume = [] {}, .state = nullptr}));
  if (config_.supervise_controller && hosts_[0]->watchdog() != nullptr) {
    XOAR_RETURN_IF_ERROR(
        hosts_[0]->watchdog()->Supervise(kControllerComponent));
  }
  m_controller_supervised_->Set(controller_supervised() ? 1.0 : 0.0);
  hosts_[0]->Settle();
  SyncClocks();

  const double derived_net_cap =
      config_.net_capacity_bps > 0
          ? config_.net_capacity_bps
          : config_.host.nic_rate_bps * config_.host.num_nics;
  for (int i = 0; i < host_count(); ++i) {
    HostState& state = host_state_[static_cast<std::size_t>(i)];
    state.capacity_mb =
        hosts_[i]->hv().memory().free_pages() * kPageSize / kMiB;
    state.net_capacity_bps = derived_net_cap;
    state.baseline_live_domains = hosts_[i]->hv().LiveDomainCount();
    // One fault injector per host, armed on demand by campaigns. Installed
    // after boot so every shard's hooks exist.
    injectors_.push_back(std::make_unique<FaultInjector>(hosts_[i].get()));
  }
  booted_ = true;
  return Status::Ok();
}

// --- One logical clock ------------------------------------------------------

SimTime Fleet::Now() const {
  SimTime now = 0;
  for (const auto& host : hosts_) {
    now = std::max(now, host->sim().Now());
  }
  return now;
}

void Fleet::AdvanceAll(SimDuration d) {
  const SimTime target = Now() + d;
  for (auto& host : hosts_) {
    host->sim().RunUntil(target);
  }
}

void Fleet::SyncClocks() {
  const SimTime target = Now();
  for (auto& host : hosts_) {
    if (host->sim().Now() < target) {
      host->sim().RunUntil(target);
    }
  }
}

SimDuration Fleet::MaxClockSkew() const {
  SimTime min_now = kSimTimeMax;
  for (const auto& host : hosts_) {
    min_now = std::min(min_now, host->sim().Now());
  }
  return Now() - min_now;
}

// --- Placement & admission --------------------------------------------------

bool Fleet::HostFeasible(int host, const GuestSpec& spec,
                         double net_demand_bps) const {
  const HostState& state = host_state_[static_cast<std::size_t>(host)];
  const double mem_budget =
      config_.headroom * static_cast<double>(state.capacity_mb);
  const double net_budget = config_.headroom * state.net_capacity_bps;
  return static_cast<double>(state.committed_mb + spec.memory_mb) <=
             mem_budget &&
         state.net_committed_bps + net_demand_bps <= net_budget;
}

double Fleet::LoadFractionAfter(int host, std::uint64_t extra_mb,
                                double extra_bps) const {
  const HostState& state = host_state_[static_cast<std::size_t>(host)];
  const double mem_budget =
      config_.headroom * static_cast<double>(state.capacity_mb);
  const double net_budget = config_.headroom * state.net_capacity_bps;
  const double mem_frac =
      mem_budget > 0
          ? static_cast<double>(state.committed_mb + extra_mb) / mem_budget
          : 0.0;
  const double net_frac =
      net_budget > 0 ? (state.net_committed_bps + extra_bps) / net_budget
                     : 0.0;
  return std::max(mem_frac, net_frac);
}

double Fleet::HostLoadFraction(int host) const {
  return LoadFractionAfter(host, 0, 0.0);
}

int Fleet::SameTenantCount(int host, const std::string& tenant) const {
  int count = 0;
  for (const auto& [id, record] : records_) {
    if (record.host == host && record.spec.tenant == tenant) {
      ++count;
    }
  }
  return count;
}

StatusOr<int> Fleet::PickHostBinPack(const GuestSpec& spec,
                                     double net_demand_bps,
                                     int exclude_host) const {
  int best = -1;
  int best_affinity = 0;
  double best_load = 0;
  for (int i = 0; i < host_count(); ++i) {
    if (i == exclude_host || !HostFeasible(i, spec, net_demand_bps)) {
      continue;
    }
    const int affinity = SameTenantCount(i, spec.tenant);
    const double load = LoadFractionAfter(i, spec.memory_mb, net_demand_bps);
    // Anti-affinity first (spread a tenant's guests), then bin-pack
    // best-fit (tightest resulting fit wins), then lowest index.
    if (best < 0 || affinity < best_affinity ||
        (affinity == best_affinity && load > best_load)) {
      best = i;
      best_affinity = affinity;
      best_load = load;
    }
  }
  if (best < 0) {
    return ResourceExhaustedError("no host has headroom for the guest");
  }
  return best;
}

StatusOr<int> Fleet::PickHostLeastLoaded(const GuestSpec& spec,
                                         double net_demand_bps,
                                         int exclude_host) const {
  int best = -1;
  int best_affinity = 0;
  double best_load = 0;
  for (int i = 0; i < host_count(); ++i) {
    if (i == exclude_host || !HostFeasible(i, spec, net_demand_bps)) {
      continue;
    }
    const int affinity = SameTenantCount(i, spec.tenant);
    const double load = LoadFractionAfter(i, spec.memory_mb, net_demand_bps);
    if (best < 0 || affinity < best_affinity ||
        (affinity == best_affinity && load < best_load)) {
      best = i;
      best_affinity = affinity;
      best_load = load;
    }
  }
  if (best < 0) {
    return ResourceExhaustedError("no host has headroom for the guest");
  }
  return best;
}

StatusOr<FleetGuestId> Fleet::CreateGuest(const GuestSpec& spec,
                                          double net_demand_bps) {
  if (!booted_) {
    return FailedPreconditionError("fleet not booted");
  }
  StatusOr<int> placed = PickHostBinPack(spec, net_demand_bps);
  if (!placed.ok()) {
    // Admission control: shed instead of overcommitting.
    m_shed_->Increment();
    return placed.status();
  }
  StatusOr<DomainId> domain = hosts_[*placed]->CreateGuest(spec);
  if (!domain.ok()) {
    return domain.status();
  }
  FleetGuestRecord record;
  record.id = next_guest_id_++;
  record.spec = spec;
  record.host = *placed;
  record.domain = *domain;
  record.net_demand_bps = net_demand_bps;
  HostState& state = host_state_[static_cast<std::size_t>(*placed)];
  state.committed_mb += spec.memory_mb;
  state.net_committed_bps += net_demand_bps;
  records_.emplace(record.id, record);
  m_created_->Increment();
  m_guests_->Set(static_cast<double>(records_.size()));
  return record.id;
}

const FleetGuestRecord* Fleet::guest(FleetGuestId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<FleetGuestId> Fleet::GuestsOnHost(int host) const {
  std::vector<FleetGuestId> out;
  for (const auto& [id, record] : records_) {
    if (record.host == host) {
      out.push_back(id);
    }
  }
  return out;
}

Status Fleet::SetNetDemand(FleetGuestId guest, double net_demand_bps) {
  auto it = records_.find(guest);
  if (it == records_.end()) {
    return NotFoundError("unknown fleet guest");
  }
  HostState& state = host_state_[static_cast<std::size_t>(it->second.host)];
  state.net_committed_bps += net_demand_bps - it->second.net_demand_bps;
  it->second.net_demand_bps = net_demand_bps;
  return Status::Ok();
}

// --- Migration orchestration ------------------------------------------------

StatusOr<Fleet::MigrateStats> Fleet::MigrateLocked(FleetGuestRecord& record,
                                                   int dest_host) {
  MigrateStats stats;
  ExponentialBackoff backoff(config_.migration_backoff);
  Status last = InternalError("migration never attempted");
  for (int attempt = 0; attempt < config_.migration_attempts; ++attempt) {
    const int src = record.host;
    int dest = dest_host;
    if (dest < 0) {
      StatusOr<int> picked = PickHostLeastLoaded(
          record.spec, record.net_demand_bps, src);
      if (!picked.ok()) {
        return picked.status();
      }
      dest = *picked;
    }
    ++stats.attempts;
    m_migrations_attempted_->Increment();
    MigrationParams params = config_.migration;
    FaultInjector* injector = src < static_cast<int>(injectors_.size())
                                  ? injectors_[src].get()
                                  : nullptr;
    if (injector != nullptr) {
      params.stream_fault = [injector](int /*round*/) {
        return injector->DrawMigrationStreamDrop();
      };
    }
    StatusOr<MigrationResult> result = LiveMigrate(
        hosts_[src].get(), record.domain, hosts_[dest].get(), params);
    SyncClocks();  // LiveMigrate advanced only the source host
    if (result.ok()) {
      HostState& from = host_state_[static_cast<std::size_t>(src)];
      HostState& to = host_state_[static_cast<std::size_t>(dest)];
      from.committed_mb -= record.spec.memory_mb;
      from.net_committed_bps -= record.net_demand_bps;
      to.committed_mb += record.spec.memory_mb;
      to.net_committed_bps += record.net_demand_bps;
      record.host = dest;
      record.domain = result->destination_guest;
      stats.moved = true;
      m_migrations_completed_->Increment();
      return stats;
    }
    last = result.status();
    m_migrations_failed_->Increment();
    if (last.code() == StatusCode::kUnavailable) {
      ++stats.stream_drop_aborts;
      m_stream_drop_aborts_->Increment();
    }
    if (attempt + 1 < config_.migration_attempts) {
      m_migration_retries_->Increment();
      // Back off (bounded exponential) before the retry; the whole fleet
      // keeps serving while we wait, and transient fault windows get a
      // chance to close.
      AdvanceAll(backoff.NextDelay());
    }
  }
  return last;
}

StatusOr<Fleet::MigrateStats> Fleet::MigrateGuest(FleetGuestId guest,
                                                  int dest_host) {
  auto it = records_.find(guest);
  if (it == records_.end()) {
    return NotFoundError("unknown fleet guest");
  }
  if (dest_host >= host_count()) {
    return InvalidArgumentError("destination host out of range");
  }
  if (dest_host == it->second.host) {
    return InvalidArgumentError("guest already on the destination host");
  }
  if (quiescer_ != nullptr) {
    Status drained = quiescer_->QuiesceGuest(guest);
    if (!drained.ok()) {
      // Could not drain in-flight requests: do not risk tearing down a
      // source instance with live probes. The guest keeps serving.
      quiescer_->ResumeGuest(guest);
      return drained;
    }
  }
  StatusOr<MigrateStats> stats = MigrateLocked(it->second, dest_host);
  if (quiescer_ != nullptr) {
    // Resume on whichever host the guest ended up on (moved or not).
    quiescer_->ResumeGuest(guest);
  }
  return stats;
}

Fleet::EvacuationStats Fleet::EvacuateHost(int host) {
  EvacuationStats stats;
  const std::vector<FleetGuestId> guests = GuestsOnHost(host);
  m_evacuations_started_->Increment();
  audit_.Record(AuditEvent{
      .time = Now(),
      .kind = AuditEventKind::kEvacuationStarted,
      .subject = controller_dom_,
      .detail = StrFormat("host=%d guests=%zu", host, guests.size())});
  for (FleetGuestId id : guests) {
    StatusOr<MigrateStats> moved = MigrateGuest(id, -1);
    if (moved.ok() && moved->moved) {
      ++stats.moved;
      stats.retries += moved->attempts - 1;
      stats.stream_drop_aborts += moved->stream_drop_aborts;
    } else {
      ++stats.failed;
      if (moved.ok()) {
        stats.retries += moved->attempts - 1;
        stats.stream_drop_aborts += moved->stream_drop_aborts;
      } else {
        stats.retries += config_.migration_attempts - 1;
      }
      XLOG(kInfo) << "[fleet] evacuation left guest " << id << " on host "
                  << host << ": "
                  << (moved.ok() ? "not moved" : moved.status().ToString());
    }
  }
  if (stats.failed == 0) {
    m_evacuations_completed_->Increment();
  }
  audit_.Record(AuditEvent{
      .time = Now(),
      .kind = AuditEventKind::kEvacuationCompleted,
      .subject = controller_dom_,
      .detail = StrFormat("host=%d moved=%d failed=%d retries=%d", host,
                          stats.moved, stats.failed, stats.retries)});
  return stats;
}

int Fleet::Rebalance(double spread_threshold, int max_moves) {
  int moves = 0;
  while (moves < max_moves) {
    int hi = 0;
    int lo = 0;
    for (int i = 1; i < host_count(); ++i) {
      if (HostLoadFraction(i) > HostLoadFraction(hi)) {
        hi = i;
      }
      if (HostLoadFraction(i) < HostLoadFraction(lo)) {
        lo = i;
      }
    }
    m_max_load_->Set(HostLoadFraction(hi));
    m_min_load_->Set(HostLoadFraction(lo));
    if (HostLoadFraction(hi) - HostLoadFraction(lo) <= spread_threshold) {
      break;
    }
    // Move the hottest guest off the hottest host that the least-loaded
    // side can absorb; largest net demand first so each move buys the most
    // spread reduction.
    std::vector<FleetGuestId> candidates = GuestsOnHost(hi);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [this](FleetGuestId a, FleetGuestId b) {
                       return records_.at(a).net_demand_bps >
                              records_.at(b).net_demand_bps;
                     });
    bool moved_one = false;
    for (FleetGuestId id : candidates) {
      const FleetGuestRecord& record = records_.at(id);
      if (!HostFeasible(lo, record.spec, record.net_demand_bps)) {
        continue;
      }
      StatusOr<MigrateStats> moved = MigrateGuest(id, lo);
      if (moved.ok() && moved->moved) {
        ++moves;
        m_rebalance_moves_->Increment();
        moved_one = true;
        break;
      }
    }
    if (!moved_one) {
      break;  // nothing movable: stop rather than spin
    }
  }
  m_max_load_->Set(HostLoadFraction(0));
  double max_load = 0;
  double min_load = 1e300;
  for (int i = 0; i < host_count(); ++i) {
    max_load = std::max(max_load, HostLoadFraction(i));
    min_load = std::min(min_load, HostLoadFraction(i));
  }
  m_max_load_->Set(max_load);
  m_min_load_->Set(min_load);
  return moves;
}

// --- Invariants -------------------------------------------------------------

Fleet::InvariantReport Fleet::CheckInvariants() {
  InvariantReport report;
  // No leaked (half-built) domains: each host's live-domain count must be
  // exactly its boot baseline plus the fleet guests placed there.
  for (int i = 0; i < host_count(); ++i) {
    const std::size_t expected =
        host_state_[static_cast<std::size_t>(i)].baseline_live_domains +
        GuestsOnHost(i).size();
    const std::size_t actual = hosts_[i]->hv().LiveDomainCount();
    if (actual != expected) {
      report.leaked_domains +=
          actual > expected ? actual - expected : expected - actual;
      XLOG(kWarning) << "[fleet] host " << i << " live domains " << actual
                  << " != expected " << expected;
    }
  }
  // No double-placed or dangling guests.
  std::set<std::pair<int, std::uint32_t>> seen;
  for (const auto& [id, record] : records_) {
    if (record.host < 0 || record.host >= host_count()) {
      ++report.placement_errors;
      continue;
    }
    if (!seen.emplace(record.host, record.domain.value()).second) {
      ++report.placement_errors;  // double placement
      continue;
    }
    const Domain* dom = hosts_[record.host]->hv().domain(record.domain);
    if (dom == nullptr || dom->state() != DomainState::kRunning ||
        hosts_[record.host]->guest_spec(record.domain) == nullptr) {
      ++report.placement_errors;
    }
  }
  // Restart budgets respected: no watchdog ran out of budget and
  // quarantined a shard.
  for (int i = 0; i < host_count(); ++i) {
    Watchdog* watchdog = hosts_[i]->watchdog();
    if (watchdog != nullptr) {
      report.budget_breaches += watchdog->quarantines();
    }
  }
  // The controller is alive and (if configured) still supervised.
  if (booted_) {
    const Domain* controller = hosts_[0]->hv().domain(controller_dom_);
    if (controller == nullptr ||
        controller->state() == DomainState::kDead) {
      ++report.controller_failures;
    }
    if (config_.supervise_controller && !controller_supervised()) {
      ++report.controller_failures;
    }
  }
  m_invariant_violations_->Set(static_cast<double>(report.violations()));
  m_controller_supervised_->Set(controller_supervised() ? 1.0 : 0.0);
  return report;
}

bool Fleet::controller_supervised() const {
  if (hosts_.empty() || hosts_[0]->watchdog() == nullptr) {
    return false;
  }
  return hosts_[0]->watchdog()->IsSupervised(kControllerComponent) &&
         !hosts_[0]->watchdog()->IsQuarantined(kControllerComponent);
}

std::uint64_t Fleet::TotalInjected(FaultType type) const {
  std::uint64_t total = 0;
  for (const auto& injector : injectors_) {
    total += injector->injected_count(type);
  }
  return total;
}

}  // namespace xoar
