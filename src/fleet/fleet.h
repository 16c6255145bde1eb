// Multi-host fleet orchestration (ROADMAP "Multi-host fleet").
//
// A Fleet owns N disaggregated XoarPlatform hosts and runs them on one
// logical simulated clock: every host keeps its own discrete-event
// Simulator (a platform and its simulator are one single-threaded world,
// DESIGN.md §2), and the fleet advances them in lockstep — AdvanceAll runs
// every host to the same target instant, host by host in index order, and
// SyncClocks catches laggards up after clock-skewing operations like
// LiveMigrate (which advances only the source host). Cross-host coupling
// happens exclusively through the orchestrator between advances, so a
// seeded fleet campaign is byte-for-byte deterministic like everything
// else in the tree.
//
// On top of that clock the fleet layers the production concerns the paper
// leaves to "a real deployment":
//   - placement: bin-pack by memory + net demand with tenant anti-affinity
//     (same-tenant guests spread across hosts to bound blast radius);
//   - admission control: a create that no host can absorb within the
//     admission headroom is *shed* (RESOURCE_EXHAUSTED), never
//     overcommitted;
//   - migration orchestration: per-migration deadlines, bounded
//     exponential retry (src/base/backoff.h), kMigrationStreamDrop fault
//     wiring, and the LiveMigrate abort contract that guarantees a failed
//     attempt never leaks a half-built destination domain;
//   - evacuation: drain every guest off a host, audit-logged
//     (kEvacuationStarted/kEvacuationCompleted);
//   - self-checking: CheckInvariants reconciles fleet placement records
//     against every host's live domain table.
//
// The fleet controller itself is supervised: a small control domain on
// host 0 is registered with that host's RestartEngine and Watchdog, so
// the machinery that heals shards also watches the thing doing fleet-wide
// orchestration (see RESILIENCE.md "Fleet").
#ifndef XOAR_SRC_FLEET_FLEET_H_
#define XOAR_SRC_FLEET_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/audit_log.h"
#include "src/base/backoff.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/ctl/migration.h"
#include "src/fault/fault.h"
#include "src/obs/metrics.h"

namespace xoar {

// Fleet-stable guest handle: survives migrations (the per-host DomainId
// changes every move; this does not).
using FleetGuestId = std::uint32_t;

struct FleetConfig {
  // Identical hosts (the homogeneous-rack assumption), each a default
  // XoarPlatform.
  int hosts = 8;

  // Migration orchestration.
  MigrationParams migration = DefaultMigrationParams();
  BackoffPolicy migration_backoff = DefaultMigrationBackoff();
  int migration_attempts = 5;  // 1 try + up to 4 backed-off retries

  static MigrationParams DefaultMigrationParams() {
    MigrationParams params;
    params.deadline = 15 * kSecond;  // per-attempt budget
    return params;
  }
  static BackoffPolicy DefaultMigrationBackoff() {
    BackoffPolicy policy;
    policy.initial_delay = 8 * kMillisecond;
    policy.multiplier = 2.0;
    policy.max_delay = 512 * kMillisecond;
    policy.max_attempts = 8;
    return policy;
  }
};

struct FleetGuestRecord {
  FleetGuestId id = 0;
  GuestSpec spec;
  int host = -1;
  DomainId domain;
  double net_demand_bps = 0;  // placement-time demand estimate
};

// Workload quiesce hook: implemented by FleetWorkload (src/fleet/workload)
// so the fleet can stop a guest's request loop and drain its in-flight
// probes before tearing the source instance down mid-migration.
class MigrationQuiescer {
 public:
  virtual ~MigrationQuiescer() = default;
  // Stop issuing requests for `guest` and drain in-flight ones (may
  // advance the fleet clock). Returns an error if the guest cannot be
  // drained within the bound — the migration is then not attempted.
  virtual Status QuiesceGuest(FleetGuestId guest) = 0;
  // Re-start the request loop on the guest's current host.
  virtual void ResumeGuest(FleetGuestId guest) = 0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Boots every host sequentially, creates + supervises the fleet
  // controller domain on host 0, installs one FaultInjector per host, and
  // records the per-host capacity/live-domain baselines the admission
  // controller and invariant checker work from. Call exactly once. Attach
  // any TraceSink to a host's tracer *before* Boot (see scenarios.h).
  Status Boot();

  const FleetConfig& config() const { return config_; }
  int host_count() const { return static_cast<int>(hosts_.size()); }
  XoarPlatform& host(int index) { return *hosts_.at(index); }
  FaultInjector* injector(int index) { return injectors_.at(index).get(); }

  // --- One logical clock over N simulators ---
  SimTime Now() const;                  // max over hosts
  void AdvanceAll(SimDuration d);       // every host to Now() + d
  void SyncClocks();                    // laggards to max Now()
  SimDuration MaxClockSkew() const;     // 0 after SyncClocks

  // --- Placement & admission ---
  // Places through the bin-pack policy; sheds with RESOURCE_EXHAUSTED when
  // no host has headroom. `net_demand_bps` is the guest's steady-state
  // traffic estimate used for load accounting.
  StatusOr<FleetGuestId> CreateGuest(const GuestSpec& spec,
                                     double net_demand_bps);
  const FleetGuestRecord* guest(FleetGuestId id) const;
  std::vector<FleetGuestId> GuestsOnHost(int host) const;
  int guest_count() const { return static_cast<int>(records_.size()); }
  // Re-prices a guest's net demand (traffic spike) for load accounting.
  Status SetNetDemand(FleetGuestId guest, double net_demand_bps);
  // max(memory fraction, net fraction) of the admission budget.
  double HostLoadFraction(int host) const;

  // Bin-pack choice for a new guest: among feasible hosts, fewest
  // same-tenant guests first (anti-affinity), then tightest resulting fit,
  // then lowest index. NOT_FOUND when no host is feasible.
  StatusOr<int> PickHostBinPack(const GuestSpec& spec, double net_demand_bps,
                                int exclude_host = -1) const;
  // Spread choice for evacuation/rebalance destinations: least-loaded
  // feasible host.
  StatusOr<int> PickHostLeastLoaded(const GuestSpec& spec,
                                    double net_demand_bps,
                                    int exclude_host = -1) const;

  // --- Migration orchestration ---
  struct MigrateStats {
    int attempts = 0;
    int stream_drop_aborts = 0;
    bool moved = false;
  };
  // Moves `guest` to `dest_host` (-1 = pick least-loaded). Quiesces the
  // workload, then tries up to migration_attempts LiveMigrates with the
  // configured deadline, wiring stream faults to the source host's
  // injector and backing off between attempts. On exhaustion the guest is
  // still running on its source host (never half-moved) and the last
  // migration error is returned.
  StatusOr<MigrateStats> MigrateGuest(FleetGuestId guest, int dest_host = -1);

  struct EvacuationStats {
    int moved = 0;
    int failed = 0;   // guests still on the host after all retries
    int retries = 0;  // extra LiveMigrate attempts beyond the first
    int stream_drop_aborts = 0;
  };
  // Drains every fleet guest off `host`, audit-logging
  // kEvacuationStarted/kEvacuationCompleted. Guests that cannot be moved
  // stay running on the host and are counted in `failed`.
  EvacuationStats EvacuateHost(int host);

  // Iterative load balancing: migrate guests from the most- to the
  // least-loaded host until the spread drops under `spread_threshold` (in
  // load-fraction units) or nothing movable remains. Returns moves made.
  int Rebalance(double spread_threshold = 0.2, int max_moves = 16);

  void set_quiescer(MigrationQuiescer* quiescer) { quiescer_ = quiescer; }

  // --- Invariants ---
  struct InvariantReport {
    std::uint64_t leaked_domains = 0;     // host live-count vs expectation
    std::uint64_t placement_errors = 0;   // double/dangling placements
    std::uint64_t budget_breaches = 0;    // watchdog quarantines
    std::uint64_t controller_failures = 0;
    // /local/domain/<id> or backend/<type>/<id> directories of domains
    // that are not alive.
    std::uint64_t stale_xenstore_dirs = 0;
    std::uint64_t violations() const {
      return leaked_domains + placement_errors + budget_breaches +
             controller_failures + stale_xenstore_dirs;
    }
  };
  // Reconciles fleet records against every host: no leaked (half-built)
  // domains, no double-placed guests, no XenStore directory outliving its
  // domain, restart budgets respected, the controller alive and
  // supervised. Also refreshed into fleet.* gauges.
  InvariantReport CheckInvariants();

  // --- Observability ---
  // Fleet-level registry (distinct from the per-host registries): all
  // fleet.* metrics land here, and BENCH_fleet.json is exported from it.
  MetricRegistry& metrics() { return metrics_; }
  AuditLog& audit() { return audit_; }
  DomainId controller_domain() const { return controller_dom_; }
  bool controller_supervised() const;

  // Aggregate over hosts (fault.injected.migration_stream_drop et al).
  std::uint64_t TotalInjected(FaultType type) const;

  static constexpr const char* kControllerComponent = "FleetController";

 private:
  struct HostState {
    std::uint64_t capacity_mb = 0;     // allocatable at boot, post-shards
    std::uint64_t committed_mb = 0;    // fleet-placed guest memory
    double net_capacity_bps = 0;
    double net_committed_bps = 0;
    std::size_t baseline_live_domains = 0;
  };

  bool HostFeasible(int host, const GuestSpec& spec,
                    double net_demand_bps) const;
  double LoadFractionAfter(int host, std::uint64_t extra_mb,
                           double extra_bps) const;
  int SameTenantCount(int host, const std::string& tenant) const;
  StatusOr<MigrateStats> MigrateLocked(FleetGuestRecord& record,
                                       int dest_host);

  FleetConfig config_;
  bool booted_ = false;
  std::vector<std::unique_ptr<XoarPlatform>> hosts_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<HostState> host_state_;
  std::map<FleetGuestId, FleetGuestRecord> records_;
  FleetGuestId next_guest_id_ = 1;
  DomainId controller_dom_;
  MigrationQuiescer* quiescer_ = nullptr;

  MetricRegistry metrics_;
  AuditLog audit_;
  Gauge* m_hosts_;
  Gauge* m_guests_;
  Counter* m_created_;
  Counter* m_shed_;
  Counter* m_migrations_attempted_;
  Counter* m_migrations_completed_;
  Counter* m_migrations_failed_;
  Counter* m_migration_retries_;
  Counter* m_stream_drop_aborts_;
  Counter* m_evacuations_started_;
  Counter* m_evacuations_completed_;
  Counter* m_rebalance_moves_;
  Gauge* m_invariant_violations_;
  Gauge* m_controller_supervised_;
  Gauge* m_max_load_;
  Gauge* m_min_load_;
};

}  // namespace xoar

#endif  // XOAR_SRC_FLEET_FLEET_H_
