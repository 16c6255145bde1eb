// The microreboot engine (§3.3, §5.4, Fig 6.3).
//
// Restartable shards register suspend/resume hooks. A restart cycle:
//   1. suspend hook — the driver closes its XenBus state, unmaps grants;
//   2. hypervisor BeginReboot — channels break, peers see the outage;
//   3. snapshot rollback — state resets to the post-init image (recovery
//      box survives);
//   4. after the device downtime elapses, CompleteReboot + resume hook —
//      the backend re-advertises and frontends renegotiate via XenStore.
//
// Two recovery grades reproduce Fig 6.3's curves: the slow path leaves the
// device hardware state untouched and renegotiates everything (~260 ms
// measured downtime in the paper); the fast path persists renegotiable
// configuration in the recovery box (~140 ms).
#ifndef XOAR_SRC_CORE_MICROREBOOT_H_
#define XOAR_SRC_CORE_MICROREBOOT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/base/audit_log.h"
#include "src/core/snapshot.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {

// Device downtimes measured in the paper (§6.1.2).
constexpr SimDuration kSlowRestartDowntime = FromMilliseconds(260);
constexpr SimDuration kFastRestartDowntime = FromMilliseconds(140);

// Drives microreboot cycles for registered components. One engine per
// platform; components register once at their ready-to-serve point and are
// restarted either on demand (RestartNow — this is also how fault campaigns
// model a shard crash) or on a timer (EnablePeriodicRestarts).
//
// All state an Entry caches across restarts — metric pointers, restart
// counts, the open trace span — belongs to the *engine*, not to the
// component instance being rebooted: a restart must never reset a
// component's metric history, and the `<name>.microreboot.up` gauge flips
// 1 -> 0 -> 1 around each cycle precisely because the registry entries
// outlive the reboot (see RESILIENCE.md "Observing recovery").
class RestartEngine {
  struct Entry;

 public:
  // Callbacks a restartable component hands to Register. The engine calls
  // `suspend` synchronously at the start of a cycle, while the component's
  // domain can still issue XenStore writes (orderly teardown: close XenBus
  // state, unmap grants, drop in-flight work). `resume` runs after the
  // device downtime has elapsed and the domain is running again; it must
  // re-advertise the component so peers renegotiate. `state`, when set,
  // is snapshotted at Register time and rolled back during every cycle —
  // the §3.3 "rollback to post-init image" step; leave it null for
  // components whose state is fully rebuilt by `resume`.
  struct ComponentHooks {
    std::function<void()> suspend;
    std::function<void()> resume;
    Snapshottable* state = nullptr;  // optional snapshot/rollback target
  };

  // `controller` is the privileged domain issuing the kSnapshotOp
  // hypercalls (the Builder in Xoar). `obs` receives per-component
  // `<name>.microreboot.*` metrics and kMicroreboot trace spans covering
  // each suspend->resume window; `audit` records every restart and every
  // rejected recovery box.
  RestartEngine(Hypervisor* hv, Simulator* sim, SnapshotManager* snapshots,
                DomainId controller, AuditLog* audit, Obs* obs);

  // Registers a restartable component. Takes the §3.3 snapshot immediately
  // if `hooks.state` is provided — callers register at the ready-to-serve
  // point. Also registers the component's `<name>.microreboot.*` metrics
  // and sets `<name>.microreboot.up` to 1. Fails with ALREADY_EXISTS on a
  // duplicate name.
  Status Register(const std::string& name, DomainId domain,
                  ComponentHooks hooks);

  // One microreboot cycle now. `fast` selects the recovery-box-assisted
  // path (~140 ms downtime vs ~260 ms). Returns FAILED_PRECONDITION if the
  // component is already mid-restart or its domain is neither running nor
  // dead — a fault campaign counts that as a skipped crash, not an error.
  // A *dead* domain (crashed, not yet rebooted) is accepted: recovering
  // crashed shards is the watchdog's whole job; the suspend hook is skipped
  // because a dead domain cannot do orderly teardown. Returns synchronously
  // once the outage has begun; recovery completes at Now() + downtime on
  // the simulator.
  //
  // The fast path treats the recovery box as untrusted input: it validates
  // every entry checksum first, and on corruption discards the box, audits
  // the rejection, and downgrades this cycle to the slow (full
  // renegotiation) path — poisoned state is never resumed from.
  Status RestartNow(const std::string& name, bool fast);

  // Periodic restarts every `interval` ("restarted on a timer", Fig 5.1).
  // A cycle that can't start (e.g. the previous one is still in progress)
  // is skipped, not queued.
  Status EnablePeriodicRestarts(const std::string& name, SimDuration interval,
                                bool fast);
  Status DisableRestarts(const std::string& name);

  // True between the start of a cycle and its resume hook completing.
  bool IsRestarting(const std::string& name) const;
  // Completed cycles (unknown names report 0 / zero downtime).
  int RestartCount(const std::string& name) const;
  SimDuration LastDowntime(const std::string& name) const;
  // Periodic cycles that could not start because another was in progress
  // (also exported as `<name>.microreboot.skipped`).
  int SkippedCycles(const std::string& name) const;
  // Fast-path cycles whose recovery box failed validation and were
  // downgraded to the slow path.
  int BoxesRejected(const std::string& name) const;
  int TotalBoxesRejected() const;
  // Domain a registered component runs in (NOT_FOUND for unknown names).
  StatusOr<DomainId> DomainOf(const std::string& name) const;

  // A registered component resolved once, for callers that ask about it on
  // every heartbeat. Entries are never erased, so the handle stays valid
  // for the engine's lifetime.
  class Component {
   public:
    bool restarting() const { return entry_->in_progress; }

   private:
    friend class RestartEngine;
    explicit Component(const Entry* entry) : entry_(entry) {}
    const Entry* entry_;
  };
  // NOT_FOUND for unknown names.
  StatusOr<Component> Find(const std::string& name) const;

 private:
  struct Entry {
    DomainId domain;
    ComponentHooks hooks;
    std::unique_ptr<PeriodicTimer> timer;
    bool fast = false;
    bool in_progress = false;
    int restarts = 0;
    int skipped = 0;
    int boxes_rejected = 0;
    SimDuration last_downtime = 0;
    Counter* m_restarts = nullptr;       // <name>.microreboot.restarts
    Counter* m_skipped = nullptr;        // <name>.microreboot.skipped
    Counter* m_box_rejected = nullptr;   // <name>.microreboot.box_rejected
    Histogram* m_downtime_ms = nullptr;  // <name>.microreboot.downtime_ms
    // <name>.microreboot.up: 1 while serving, 0 during the outage window.
    // Owned by the engine's Entry so a dying instance can't drop it.
    Gauge* m_up = nullptr;
    Tracer::SpanId span = Tracer::kInvalidSpan;  // open restart window
  };

  Status DoRestart(Entry& entry, const std::string& name, bool fast);

  Hypervisor* hv_;
  Simulator* sim_;
  SnapshotManager* snapshots_;
  DomainId controller_;
  AuditLog* audit_;
  Obs* obs_;
  std::map<std::string, Entry> components_;
};

}  // namespace xoar

#endif  // XOAR_SRC_CORE_MICROREBOOT_H_
