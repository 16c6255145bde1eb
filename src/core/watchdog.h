// Shard supervision: heartbeat watchdog with automatic microreboot
// escalation (§3.3 closed-loop; Quest-V-style online fault recovery).
//
// The paper's availability story assumes failed shards are *detected* and
// microrebooted; PR 3 built the restart machinery but left detection to
// the caller. This watchdog closes the loop. Every supervised component's
// service loop emits a heartbeat on the simulator clock while it is
// actually able to serve (its domain running, no restart in progress, no
// injected stall). The watchdog checks a per-component deadline and
// classifies a miss:
//
//   - domain dead            -> crash    ("dead-domain")
//   - domain running, stale  -> hang     ("missed-heartbeat")
//
// and drives `RestartEngine::RestartNow` automatically, escalating per
// component:
//
//   1. fast restarts while recent-failure history is short;
//   2. slow (full-renegotiation) restarts after repeated failures;
//   3. quarantine once the restart budget for the sliding window is
//      exhausted — the component enters a degraded mode (its
//      RestartEngine suspend hook runs, so peers fail `UNAVAILABLE`)
//      instead of restart-storming, until an operator Unquarantines it.
//
// Every decision is audit-logged with its cause and surfaced as
// `<name>.watchdog.*` metrics plus kWatchdog trace spans covering
// detection -> recovery. Determinism: heartbeats, deadlines, and
// escalation all run on the simulator clock with no randomness, so a
// seeded fault campaign replays byte for byte (DESIGN.md §5d).
#ifndef XOAR_SRC_CORE_WATCHDOG_H_
#define XOAR_SRC_CORE_WATCHDOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/base/audit_log.h"
#include "src/core/microreboot.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {

// Heartbeat cadence of a healthy service loop.
inline constexpr SimDuration kHeartbeatInterval = 10 * kMillisecond;
// A component whose last heartbeat is older than this is failed. Must
// exceed kHeartbeatInterval or a healthy component looks hung.
inline constexpr SimDuration kHeartbeatTimeout = 50 * kMillisecond;

// One watchdog per platform; components already registered with the
// RestartEngine are placed under supervision by Supervise().
class Watchdog {
 public:
  Watchdog(Simulator* sim, Hypervisor* hv, RestartEngine* engine,
           AuditLog* audit, Obs* obs);

  // Starts supervising a component registered with the RestartEngine
  // (NOT_FOUND otherwise). When its restart budget is exhausted, the
  // component's suspend hook moves it into its degraded mode — e.g. a
  // backend Suspend() so peers see `UNAVAILABLE` rather than silence.
  Status Supervise(const std::string& name);

  // Fault hook for FaultType::kShardHang: the component's service loop
  // stalls (heartbeats stop) for `duration` without its domain dying.
  // FAILED_PRECONDITION while the component is restarting, quarantined, or
  // its domain is not running — the fault layer counts that as skipped.
  Status InjectHang(const std::string& name, SimDuration duration);

  // Operator action: leave quarantine via one slow restart, with the
  // failure history cleared and supervision re-armed.
  Status Unquarantine(const std::string& name);

  bool IsSupervised(const std::string& name) const;
  bool IsQuarantined(const std::string& name) const;

  // --- Aggregates across all supervised components ---
  std::uint64_t hangs_detected() const { return hangs_detected_; }
  // Injected hangs that never needed detection because an independent
  // restart (e.g. a fault-injected crash of the same shard) reset the
  // stalled service loop first. Every injected hang ends up either
  // detected or absorbed.
  std::uint64_t hangs_absorbed() const { return hangs_absorbed_; }
  std::uint64_t deaths_detected() const { return deaths_detected_; }
  std::uint64_t auto_restarts() const { return auto_restarts_; }
  std::uint64_t quarantines() const { return quarantines_; }
  // Worst observed injected-hang detection latency (stall start to
  // watchdog reaction). The invariant a campaign checks: never exceeds
  // kHeartbeatTimeout.
  SimDuration max_hang_detection_latency() const {
    return max_hang_detection_latency_;
  }

 private:
  // The heartbeat and deadline callbacks hold the Entry itself: entries_
  // never erases, so neither an Entry nor its key ever moves.
  struct Entry {
    explicit Entry(RestartEngine::Component c) : component(c) {}
    const std::string* name = nullptr;  // this entry's key in entries_
    RestartEngine::Component component;
    DomainId domain;
    std::unique_ptr<PeriodicTimer> emitter;  // the shard's heartbeat loop
    SimTime last_beat = 0;
    // Injected stall: beats are suppressed until hang_until.
    SimTime hang_until = 0;
    SimTime hang_start = 0;
    bool hang_pending = false;
    bool quarantined = false;
    // Invalidates in-flight deadline events across quarantine transitions
    // so stale chains die instead of double-firing.
    std::uint64_t deadline_generation = 0;
    // Watchdog-initiated restart times inside the sliding budget window.
    std::deque<SimTime> history;
    // Open detection->recovery span (closed by the next recorded beat).
    Tracer::SpanId span = Tracer::kInvalidSpan;
    SimTime detected_at = 0;
    Counter* m_beats = nullptr;         // <name>.watchdog.beats
    Counter* m_hangs = nullptr;         // <name>.watchdog.hangs
    Counter* m_hangs_absorbed = nullptr;  // <name>.watchdog.hangs_absorbed
    Counter* m_deaths = nullptr;        // <name>.watchdog.deaths
    Counter* m_restarts = nullptr;      // <name>.watchdog.restarts
    Gauge* m_quarantined = nullptr;     // <name>.watchdog.quarantined
    Histogram* m_detection_ms = nullptr;  // <name>.watchdog.detection_ms
    Histogram* m_recovery_ms = nullptr;   // <name>.watchdog.recovery_ms
  };

  void RecordBeat(Entry& entry);
  void ScheduleDeadline(Entry& entry, SimTime at);
  void CheckDeadline(Entry& entry, std::uint64_t generation);
  void HandleFailure(Entry& entry);
  void Quarantine(Entry& entry, const std::string& cause);
  void RecordAudit(AuditEventKind kind, const Entry& entry,
                   const std::string& detail);

  Simulator* sim_;
  Hypervisor* hv_;
  RestartEngine* engine_;
  AuditLog* audit_;
  Obs* obs_;
  std::map<std::string, Entry> entries_;

  std::uint64_t hangs_detected_ = 0;
  std::uint64_t hangs_absorbed_ = 0;
  std::uint64_t deaths_detected_ = 0;
  std::uint64_t auto_restarts_ = 0;
  std::uint64_t quarantines_ = 0;
  SimDuration max_hang_detection_latency_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_CORE_WATCHDOG_H_
