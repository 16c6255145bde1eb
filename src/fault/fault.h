// Deterministic fault injection for resilience campaigns (RESILIENCE.md).
//
// A FaultPlan is a schedule of typed faults pinned to simulated times; a
// FaultInjector arms the plan against a booted XoarPlatform by installing
// the observation-only hooks the subsystems expose (event-channel send,
// grant map, XenStore request, BlkBack I/O, NetBack tx — see DESIGN.md §5c
// for the placement rules). Everything is driven by the simulator clock and
// a seeded Rng: the same plan against the same platform produces the same
// run, byte for byte. Wall-clock time is never consulted.
//
// Transient faults open a *window* [at, at+duration) during which each
// operation of the matching type fails with the spec's probability. Shard
// crashes fire once, through the RestartEngine, and exercise the real
// microreboot path. FaultPlan::Randomized lays out a seeded random campaign
// that covers every transient type at least once.
#ifndef XOAR_SRC_FAULT_FAULT_H_
#define XOAR_SRC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {

enum class FaultType : std::uint8_t {
  kShardCrash = 0,  // microreboot a named component via the RestartEngine
  kEvtchnDrop,      // event-channel notification silently lost
  kEvtchnDelay,     // event-channel notification delivered late
  kGrantMapFail,    // hypervisor grant map fails with UNAVAILABLE
  kBlkIoError,      // BlkBack answers a transient EIO
  kNetDropBurst,    // NetBack silently drops tx frames
  kXsTimeout,       // XenStore request times out (UNAVAILABLE)
  kShardHang,       // service loop stalls (heartbeats stop, domain alive)
  kRecoveryBoxCorrupt,  // recovery box poisoned; next fast restart must
                        // reject it onto the slow path
  kMigrationStreamDrop,  // live-migration stream breaks mid-round; the
                         // orchestrator must abort and retry with backoff
  kCount,
};

constexpr std::size_t kFaultTypeCount =
    static_cast<std::size_t>(FaultType::kCount);

std::string_view FaultTypeName(FaultType type);

// One scheduled fault. For kShardCrash, `target` names the RestartEngine
// component and `fast_recovery` picks the recovery grade; for kShardHang,
// `target` names the supervised component and `duration` is how long its
// service loop stalls; for kRecoveryBoxCorrupt, `target` names the
// component whose box is poisoned. The other fields describe a transient
// window.
struct FaultSpec {
  FaultType type = FaultType::kXsTimeout;
  SimTime at = 0;                          // when the window opens / crash fires
  SimDuration duration = 10 * kMillisecond;  // window length / hang length
  double probability = 1.0;                // per-op injection probability
  SimDuration delay = 5 * kMillisecond;    // extra latency for kEvtchnDelay
  std::string target;                      // component name (fire-once faults)
  bool fast_recovery = true;               // kShardCrash recovery grade
};

// Knobs for FaultPlan::Randomized. Defaults give a short mixed campaign.
struct CampaignConfig {
  std::uint64_t seed = 1;
  int fault_count = 16;        // transient windows to lay out
  SimTime start = 0;           // campaign window in simulated time
  SimTime end = 10 * kSecond;
  int crash_count = 2;         // shard crashes spread over the campaign

  // Supervision faults. Hangs stall a service loop long enough (>> the
  // watchdog timeout) that detection, not luck, ends the outage; box
  // corruptions poison a recovery box and immediately exercise the
  // fast-restart validation path. Set the counts to 0 for a
  // pre-supervision campaign.
  int hang_count = 2;
  int box_corrupt_count = 1;

  // Fleet migration faults (src/fleet). Windows during which the
  // live-migration stream off this host breaks per-round with the
  // campaign's window probability. 0 keeps single-host campaigns (and
  // every pre-existing seed's layout) untouched: like the supervision
  // faults above, these draws come after every older draw in Randomized().
  int migration_drop_count = 0;
  SimDuration min_migration_drop_window = 40 * kMillisecond;
  SimDuration max_migration_drop_window = 120 * kMillisecond;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // Lays out `config.fault_count` transient windows plus
  // `config.crash_count` shard crashes inside [start, end), seeded purely
  // by `config.seed`: the same config yields the same plan. Every transient
  // fault type gets at least one window when fault_count allows
  // (round-robin over the six types); kNetDropBurst windows always inject
  // with probability 1.0 so drop bursts are dense enough to observe.
  static FaultPlan Randomized(const CampaignConfig& config);

  void Add(FaultSpec spec) { specs_.push_back(std::move(spec)); }

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  // Seed for the injector's per-operation probability draws.
  std::uint64_t seed() const { return seed_; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t seed_ = 1;
};

// Installs the injection hooks on a *booted* XoarPlatform and executes
// FaultPlans against it. One injector per platform; the destructor (and
// Disarm) uninstalls every hook, returning the platform to a clean state.
//
// XenStore faults are injected only against guest callers: shard control
// paths (backend re-advertisement, handshake reads) get their XenStore
// outages from kShardCrash of XenStore-Logic instead, so a transient
// window cannot silently wedge a backend that has no retry reason to exist
// outside campaigns (see RESILIENCE.md "What gets injected where").
class FaultInjector {
 public:
  explicit FaultInjector(XoarPlatform* platform);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every spec in `plan` on the simulator and seeds the
  // per-operation Rng from plan.seed(). Replaces any previously armed plan
  // (pending events from it are cancelled).
  void Arm(const FaultPlan& plan);

  // Cancels scheduled windows/crashes and closes any open windows. Hooks
  // stay installed but inject nothing until the next Arm.
  void Disarm();

  std::uint64_t injected_count(FaultType type) const {
    return injected_[static_cast<std::size_t>(type)];
  }
  // Per-round decision for the live-migration stream. Unlike the other
  // fault types there is no subsystem hook to install — the migration
  // orchestrator (src/fleet) polls this at each pre-copy round boundary
  // and treats true as a broken stream. Outside an open
  // kMigrationStreamDrop window it always returns false.
  bool DrawMigrationStreamDrop() {
    return Draw(FaultType::kMigrationStreamDrop);
  }
  std::uint64_t total_injected() const;
  std::uint64_t windows_opened() const { return windows_opened_; }
  // Crashes whose RestartNow was rejected (component already mid-restart).
  std::uint64_t crashes_skipped() const { return crashes_skipped_; }

 private:
  struct TypeState {
    int active_windows = 0;
    double probability = 1.0;
    SimDuration delay = 0;
  };

  void InstallHooks();
  void UninstallHooks();
  // One per-operation decision: inside a window of `type`, draw against its
  // probability; count and return true on injection.
  bool Draw(FaultType type);
  void OpenWindow(const FaultSpec& spec);
  void CloseWindow(FaultType type);
  void FireCrash(const FaultSpec& spec);
  void FireHang(const FaultSpec& spec);
  void FireBoxCorrupt(const FaultSpec& spec);

  XoarPlatform* platform_;
  Rng rng_;
  std::array<TypeState, kFaultTypeCount> windows_{};
  std::vector<EventId> pending_;  // scheduled open/close/crash events
  std::array<std::uint64_t, kFaultTypeCount> injected_{};
  std::uint64_t windows_opened_ = 0;
  std::uint64_t crashes_skipped_ = 0;
  Obs* obs_;
  std::array<Counter*, kFaultTypeCount> m_injected_{};  // fault.injected.<type>
  Counter* m_windows_opened_;   // fault.windows.opened
  Gauge* m_windows_active_;     // fault.windows.active
  Counter* m_crashes_skipped_;  // fault.crashes.skipped
  Counter* m_hangs_skipped_;    // fault.hangs.skipped
  Counter* m_box_corrupts_skipped_;  // fault.box_corrupts.skipped
};

}  // namespace xoar

#endif  // XOAR_SRC_FAULT_FAULT_H_
