#include "src/fault/fault.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/hv/hypervisor.h"

namespace xoar {

namespace {

constexpr FaultType kTransientTypes[] = {
    FaultType::kEvtchnDrop,   FaultType::kEvtchnDelay,
    FaultType::kGrantMapFail, FaultType::kBlkIoError,
    FaultType::kNetDropBurst, FaultType::kXsTimeout,
};

// The layout of FaultPlan::Randomized. Transient windows inject with this
// per-op probability (net drop bursts drop every frame).
constexpr double kWindowProbability = 0.75;
constexpr SimDuration kMinWindow = 10 * kMillisecond;
constexpr SimDuration kMaxWindow = 60 * kMillisecond;
// Crashes, hangs and box corruptions each rotate through their targets
// with the seed; crashes and hangs share theirs. Crashes restart on the
// fast path.
constexpr std::string_view kCrashAndHangTargets[] = {"NetBack", "BlkBack",
                                                     "XenStore-Logic"};
constexpr SimDuration kMinHang = 120 * kMillisecond;
constexpr SimDuration kMaxHang = 280 * kMillisecond;
// Only components whose recovery boxes hold real config are worth
// poisoning; an empty box is skipped at fire time.
constexpr std::string_view kBoxCorruptTargets[] = {"NetBack", "BlkBack"};

}  // namespace

std::string_view FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kShardCrash:
      return "shard_crash";
    case FaultType::kEvtchnDrop:
      return "evtchn_drop";
    case FaultType::kEvtchnDelay:
      return "evtchn_delay";
    case FaultType::kGrantMapFail:
      return "grant_map_fail";
    case FaultType::kBlkIoError:
      return "blk_io_error";
    case FaultType::kNetDropBurst:
      return "net_drop_burst";
    case FaultType::kXsTimeout:
      return "xs_timeout";
    case FaultType::kShardHang:
      return "shard_hang";
    case FaultType::kRecoveryBoxCorrupt:
      return "recovery_box_corrupt";
    case FaultType::kMigrationStreamDrop:
      return "migration_stream_drop";
    case FaultType::kCount:
      break;
  }
  return "unknown";
}

// --- FaultPlan ---------------------------------------------------------------

FaultPlan FaultPlan::Randomized(const CampaignConfig& config) {
  FaultPlan plan;
  plan.set_seed(config.seed);
  // A separate stream for layout so the injector's per-op draws (seeded
  // with config.seed directly) are independent of how the plan was built.
  Rng layout(config.seed ^ 0x9E3779B97F4A7C15ULL);
  const SimTime start = config.start;
  const SimDuration span =
      config.end > config.start ? config.end - config.start : 1;

  constexpr std::size_t kNumTransient =
      sizeof(kTransientTypes) / sizeof(kTransientTypes[0]);
  for (int i = 0; i < config.fault_count; ++i) {
    FaultSpec spec;
    // Round-robin guarantees every transient type appears once whenever
    // fault_count >= 6; the rest of the layout is seeded-random.
    spec.type = kTransientTypes[static_cast<std::size_t>(i) % kNumTransient];
    spec.duration = layout.NextInRange(kMinWindow, kMaxWindow);
    const SimDuration placeable =
        span > spec.duration ? span - spec.duration : 1;
    spec.at = start + layout.NextBelow(placeable);
    spec.probability =
        spec.type == FaultType::kNetDropBurst ? 1.0 : kWindowProbability;
    spec.delay = layout.NextInRange(2, 8) * kMillisecond;
    plan.Add(std::move(spec));
  }
  // Crashes are spread evenly so recovery windows rarely overlap; which
  // component crashes when still rotates with the seed.
  const std::uint64_t rotation = layout.NextU64();
  for (int j = 0; j < config.crash_count; ++j) {
    FaultSpec spec;
    spec.type = FaultType::kShardCrash;
    spec.target =
        kCrashAndHangTargets[(rotation + static_cast<std::uint64_t>(j)) %
                             std::size(kCrashAndHangTargets)];
    spec.at = start + (span * static_cast<std::uint64_t>(j + 1)) /
                          static_cast<std::uint64_t>(config.crash_count + 1);
    plan.Add(std::move(spec));
  }
  // Hangs sit at odd half-slots ((2k+1)/(2(h+1)) of the span) so they fall
  // between the crash slots rather than on top of them — a hang landing on
  // a target that is mid-crash-recovery would be refused and skipped.
  // These draws come after every pre-existing draw, so adding supervision
  // faults does not perturb the transient/crash layout of older seeds.
  const std::uint64_t hang_rotation = layout.NextU64();
  for (int k = 0; k < config.hang_count; ++k) {
    FaultSpec spec;
    spec.type = FaultType::kShardHang;
    spec.target =
        kCrashAndHangTargets[(hang_rotation + static_cast<std::uint64_t>(k)) %
                             std::size(kCrashAndHangTargets)];
    spec.duration = layout.NextInRange(kMinHang, kMaxHang);
    spec.at = start + (span * static_cast<std::uint64_t>(2 * k + 1)) /
                          static_cast<std::uint64_t>(2 * (config.hang_count + 1));
    plan.Add(std::move(spec));
  }
  // Box corruptions poison the box and immediately force a fast restart,
  // so the validation rejection is observed inside the campaign window.
  const std::uint64_t box_rotation = layout.NextU64();
  for (int k = 0; k < config.box_corrupt_count; ++k) {
    FaultSpec spec;
    spec.type = FaultType::kRecoveryBoxCorrupt;
    spec.target =
        kBoxCorruptTargets[(box_rotation + static_cast<std::uint64_t>(k)) %
                           std::size(kBoxCorruptTargets)];
    spec.at = start +
              (span * static_cast<std::uint64_t>(2 * k + 1)) /
                  static_cast<std::uint64_t>(2 * (config.box_corrupt_count + 1)) +
              span / 20;  // offset off the hang half-slots
    plan.Add(std::move(spec));
  }
  // Migration stream drops (src/fleet). Spread across the campaign span at
  // even slots like crashes — an evacuation sweeping the host keeps running
  // into them — but with seeded-random window lengths. These draws come
  // after every pre-existing draw, so fleet campaigns do not perturb the
  // layout of older single-host seeds (migration_drop_count defaults to 0).
  for (int k = 0; k < config.migration_drop_count; ++k) {
    FaultSpec spec;
    spec.type = FaultType::kMigrationStreamDrop;
    spec.duration = layout.NextInRange(config.min_migration_drop_window,
                                       config.max_migration_drop_window);
    spec.at = start + (span * static_cast<std::uint64_t>(k + 1)) /
                          static_cast<std::uint64_t>(
                              config.migration_drop_count + 1);
    spec.probability = kWindowProbability;
    plan.Add(std::move(spec));
  }
  std::stable_sort(plan.specs_.begin(), plan.specs_.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return plan;
}

// --- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(XoarPlatform* platform)
    : platform_(platform), rng_(1), obs_(&platform->obs()) {
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    m_injected_[i] = obs_->metrics().GetCounter(
        "fault.injected." +
        std::string(FaultTypeName(static_cast<FaultType>(i))));
  }
  m_windows_opened_ = obs_->metrics().GetCounter("fault.windows.opened");
  m_windows_active_ = obs_->metrics().GetGauge("fault.windows.active");
  m_crashes_skipped_ = obs_->metrics().GetCounter("fault.crashes.skipped");
  m_hangs_skipped_ = obs_->metrics().GetCounter("fault.hangs.skipped");
  m_box_corrupts_skipped_ =
      obs_->metrics().GetCounter("fault.box_corrupts.skipped");
  InstallHooks();
}

FaultInjector::~FaultInjector() {
  Disarm();
  UninstallHooks();
}

void FaultInjector::InstallHooks() {
  platform_->hv().evtchn().set_send_fault_hook(
      [this](DomainId /*caller*/, EvtchnPort /*port*/) {
        SendFaultDecision decision;
        if (Draw(FaultType::kEvtchnDrop)) {
          decision.action = SendFaultAction::kDrop;
          return decision;
        }
        if (Draw(FaultType::kEvtchnDelay)) {
          decision.action = SendFaultAction::kDelay;
          decision.extra_delay =
              windows_[static_cast<std::size_t>(FaultType::kEvtchnDelay)]
                  .delay;
        }
        return decision;
      });
  platform_->hv().set_grant_map_fault_hook(
      [this](DomainId /*caller*/, DomainId /*owner*/) {
        return Draw(FaultType::kGrantMapFail);
      });
  platform_->xenstore().set_request_fault_hook([this](DomainId caller) {
    // Guest-facing faults only: shard control traffic (backend
    // re-advertisement, handshake reads) gets its XenStore outages from a
    // kShardCrash of XenStore-Logic, which gates *all* callers coherently.
    const Domain* dom = platform_->hv().domain(caller);
    if (dom != nullptr && (dom->is_shard() || dom->is_control_domain())) {
      return false;
    }
    return Draw(FaultType::kXsTimeout);
  });
  for (int i = 0; i < platform_->netback_count(); ++i) {
    platform_->netback(i).set_tx_fault_hook(
        [this](DomainId /*guest*/, const NetRingRequest& /*request*/) {
          return Draw(FaultType::kNetDropBurst);
        });
  }
  for (int i = 0; i < platform_->blkback_count(); ++i) {
    platform_->blkback(i).set_io_fault_hook(
        [this](DomainId /*guest*/, const BlkRingRequest& /*request*/) {
          return Draw(FaultType::kBlkIoError);
        });
  }
}

void FaultInjector::UninstallHooks() {
  platform_->hv().evtchn().set_send_fault_hook(nullptr);
  platform_->hv().set_grant_map_fault_hook(nullptr);
  platform_->xenstore().set_request_fault_hook(nullptr);
  for (int i = 0; i < platform_->netback_count(); ++i) {
    platform_->netback(i).set_tx_fault_hook(nullptr);
  }
  for (int i = 0; i < platform_->blkback_count(); ++i) {
    platform_->blkback(i).set_io_fault_hook(nullptr);
  }
}

void FaultInjector::Arm(const FaultPlan& plan) {
  Disarm();
  rng_.Seed(plan.seed());
  Simulator& sim = platform_->sim();
  for (const FaultSpec& spec : plan.specs()) {
    if (spec.type == FaultType::kShardCrash) {
      pending_.push_back(
          sim.ScheduleAt(spec.at, [this, spec] { FireCrash(spec); }));
      continue;
    }
    if (spec.type == FaultType::kShardHang) {
      pending_.push_back(
          sim.ScheduleAt(spec.at, [this, spec] { FireHang(spec); }));
      continue;
    }
    if (spec.type == FaultType::kRecoveryBoxCorrupt) {
      pending_.push_back(
          sim.ScheduleAt(spec.at, [this, spec] { FireBoxCorrupt(spec); }));
      continue;
    }
    pending_.push_back(
        sim.ScheduleAt(spec.at, [this, spec] { OpenWindow(spec); }));
    pending_.push_back(sim.ScheduleAt(spec.at + spec.duration,
                                      [this, type = spec.type] {
                                        CloseWindow(type);
                                      }));
  }
}

void FaultInjector::Disarm() {
  Simulator& sim = platform_->sim();
  for (EventId event : pending_) {
    (void)sim.Cancel(event);
  }
  pending_.clear();
  for (TypeState& state : windows_) {
    if (state.active_windows > 0) {
      m_windows_active_->Add(-static_cast<double>(state.active_windows));
      state.active_windows = 0;
    }
  }
}

bool FaultInjector::Draw(FaultType type) {
  TypeState& state = windows_[static_cast<std::size_t>(type)];
  if (state.active_windows <= 0) {
    return false;
  }
  if (state.probability < 1.0 && !rng_.NextBool(state.probability)) {
    return false;
  }
  ++injected_[static_cast<std::size_t>(type)];
  m_injected_[static_cast<std::size_t>(type)]->Increment();
  return true;
}

void FaultInjector::OpenWindow(const FaultSpec& spec) {
  TypeState& state = windows_[static_cast<std::size_t>(spec.type)];
  ++state.active_windows;
  // Overlapping windows of one type share state: the latest opener's
  // parameters win for the overlap.
  state.probability = spec.probability;
  state.delay = spec.delay;
  ++windows_opened_;
  m_windows_opened_->Increment();
  m_windows_active_->Add(1.0);
  XLOG(kDebug) << "[fault] window open: " << FaultTypeName(spec.type);
}

void FaultInjector::CloseWindow(FaultType type) {
  TypeState& state = windows_[static_cast<std::size_t>(type)];
  if (state.active_windows > 0) {
    --state.active_windows;
    m_windows_active_->Add(-1.0);
  }
}

void FaultInjector::FireCrash(const FaultSpec& spec) {
  const Status status =
      platform_->restarts().RestartNow(spec.target, spec.fast_recovery);
  if (!status.ok()) {
    // Typically "already restarting" when two crashes land close together;
    // a campaign treats this as a skipped fault, never as a failure.
    ++crashes_skipped_;
    m_crashes_skipped_->Increment();
    XLOG(kInfo) << "[fault] crash of " << spec.target
                << " skipped: " << status;
    return;
  }
  ++injected_[static_cast<std::size_t>(FaultType::kShardCrash)];
  m_injected_[static_cast<std::size_t>(FaultType::kShardCrash)]->Increment();
  XLOG(kDebug) << "[fault] crashed " << spec.target;
}

void FaultInjector::FireHang(const FaultSpec& spec) {
  Status status = platform_->watchdog()->InjectHang(spec.target,
                                                   spec.duration);
  if (!status.ok()) {
    m_hangs_skipped_->Increment();
    XLOG(kInfo) << "[fault] hang of " << spec.target
                << " skipped: " << status;
    return;
  }
  ++injected_[static_cast<std::size_t>(FaultType::kShardHang)];
  m_injected_[static_cast<std::size_t>(FaultType::kShardHang)]->Increment();
  XLOG(kDebug) << "[fault] hung " << spec.target << " for "
               << spec.duration / kMillisecond << "ms";
}

void FaultInjector::FireBoxCorrupt(const FaultSpec& spec) {
  const auto skip = [this, &spec](std::string_view why) {
    m_box_corrupts_skipped_->Increment();
    XLOG(kInfo) << "[fault] box corruption of " << spec.target
                << " skipped: " << why;
  };
  StatusOr<DomainId> domain = platform_->restarts().DomainOf(spec.target);
  if (!domain.ok()) {
    skip("unknown component");
    return;
  }
  RecoveryBox& box = platform_->snapshots().recovery_box(*domain);
  // Corrupt the first entry with a payload; an empty box has nothing for
  // the fast path to distrust.
  std::string victim;
  for (const std::string& key : box.Keys()) {
    if (box.CorruptForTest(key).ok()) {
      victim = key;
      break;
    }
  }
  if (victim.empty()) {
    skip("recovery box has no corruptible entry");
    return;
  }
  // Force a fast restart so the validation rejection (and the fall back to
  // the slow path) happens now, inside the campaign window.
  Status status = platform_->restarts().RestartNow(spec.target, true);
  if (!status.ok()) {
    // Target mid-restart: revert the (self-inverse) flip so a later fast
    // restart is not silently poisoned by a fault that reported "skipped".
    (void)box.CorruptForTest(victim);
    skip("target is mid-restart");
    return;
  }
  ++injected_[static_cast<std::size_t>(FaultType::kRecoveryBoxCorrupt)];
  m_injected_[static_cast<std::size_t>(FaultType::kRecoveryBoxCorrupt)]
      ->Increment();
  XLOG(kDebug) << "[fault] corrupted recovery box of " << spec.target;
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (std::uint64_t count : injected_) {
    total += count;
  }
  return total;
}

}  // namespace xoar
