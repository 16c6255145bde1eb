// Deterministic fault injection (src/fault) and the retry/backoff layer
// that absorbs it (RESILIENCE.md). The crash scenarios from failure_test.cc
// reappear here expressed as FaultPlans: the plan is the campaign-facing
// way to say "NetBack dies at t=2s" and must produce the same blast radius.
#include <gtest/gtest.h>

#include "src/base/backoff.h"
#include "src/core/xoar_platform.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/drv/xenbus.h"
#include "src/fault/fault.h"
#include "src/workloads/wget.h"

namespace xoar {
namespace {

// --- Backoff primitives ---

TEST(BackoffTest, DelaysAreDeterministic) {
  BackoffPolicy policy;  // 1ms initial, x2, 256ms cap
  EXPECT_EQ(policy.DelayForAttempt(0), 1 * kMillisecond);
  EXPECT_EQ(policy.DelayForAttempt(1), 2 * kMillisecond);
  EXPECT_EQ(policy.DelayForAttempt(5), 32 * kMillisecond);
  EXPECT_EQ(policy.DelayForAttempt(8), 256 * kMillisecond);
  EXPECT_EQ(policy.DelayForAttempt(20), 256 * kMillisecond);  // capped

  // Two ladders over the same policy yield identical sequences — no jitter,
  // by design: the simulation is single-threaded, so thundering herds
  // cannot happen, and determinism buys replayable campaigns.
  ExponentialBackoff a{policy};
  ExponentialBackoff b{policy};
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.NextDelay(), b.NextDelay());
  }
}

TEST(BackoffTest, ExhaustionIsAdvisoryAndResettable) {
  BackoffPolicy policy;
  policy.max_attempts = 3;
  ExponentialBackoff backoff{policy};
  EXPECT_FALSE(backoff.Exhausted());
  EXPECT_EQ(backoff.NextDelay(), 1 * kMillisecond);
  EXPECT_EQ(backoff.NextDelay(), 2 * kMillisecond);
  EXPECT_EQ(backoff.NextDelay(), 4 * kMillisecond);
  EXPECT_TRUE(backoff.Exhausted());
  // Unbounded-retry callers (backend re-advertisement) keep going at the
  // cap; NextDelay never stops working.
  EXPECT_LE(backoff.NextDelay(), policy.max_delay);
  backoff.Reset();
  EXPECT_FALSE(backoff.Exhausted());
  EXPECT_EQ(backoff.NextDelay(), 1 * kMillisecond);
}

// The pre-optimisation DelayForAttempt, kept verbatim as the behavioural
// oracle for the O(1) closed form: the ladder values callers tuned against
// (including the early-cap quirk for multiplier < 1) must not move.
SimDuration ReferenceDelayForAttempt(const BackoffPolicy& policy,
                                     int attempt) {
  double delay = static_cast<double>(policy.initial_delay);
  for (int i = 0; i < attempt; ++i) {
    delay *= policy.multiplier;
    if (delay >= static_cast<double>(policy.max_delay)) {
      return policy.max_delay;
    }
  }
  return std::min(static_cast<SimDuration>(delay), policy.max_delay);
}

TEST(BackoffTest, ClosedFormMatchesReferenceLoop) {
  const SimDuration initials[] = {0, 1, kMillisecond, 7 * kMillisecond,
                                  kSecond};
  const double multipliers[] = {0.5, 1.0, 1.5, 2.0, 3.0};
  const SimDuration caps[] = {1, 64 * kMillisecond, 256 * kMillisecond,
                              10 * kSecond};
  for (SimDuration initial : initials) {
    for (double multiplier : multipliers) {
      for (SimDuration cap : caps) {
        BackoffPolicy policy;
        policy.initial_delay = initial;
        policy.multiplier = multiplier;
        policy.max_delay = cap;
        for (int attempt = 0; attempt <= 64; ++attempt) {
          EXPECT_EQ(policy.DelayForAttempt(attempt),
                    ReferenceDelayForAttempt(policy, attempt))
              << "initial=" << initial << " multiplier=" << multiplier
              << " cap=" << cap << " attempt=" << attempt;
        }
      }
    }
  }

  // The closed form clamps absurd attempt counts without iterating — the
  // reference loop could not even run these.
  BackoffPolicy policy;  // 1 ms initial, x2, 256 ms cap
  EXPECT_EQ(policy.DelayForAttempt(1'000'000'000), policy.max_delay);
  policy.multiplier = 0.5;  // shrinking ladder underflows to zero
  EXPECT_EQ(policy.DelayForAttempt(1'000'000'000), 0u);
}

// --- FaultPlan layout ---

TEST(FaultPlanTest, RandomizedIsSeedDeterministic) {
  CampaignConfig config;
  config.seed = 99;
  FaultPlan a = FaultPlan::Randomized(config);
  FaultPlan b = FaultPlan::Randomized(config);
  ASSERT_EQ(a.specs().size(), b.specs().size());
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(a.specs()[i].type, b.specs()[i].type);
    EXPECT_EQ(a.specs()[i].at, b.specs()[i].at);
    EXPECT_EQ(a.specs()[i].duration, b.specs()[i].duration);
    EXPECT_EQ(a.specs()[i].target, b.specs()[i].target);
  }

  config.seed = 100;
  FaultPlan c = FaultPlan::Randomized(config);
  bool differs = false;
  for (std::size_t i = 0; i < a.specs().size() && i < c.specs().size(); ++i) {
    differs |= a.specs()[i].at != c.specs()[i].at;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, RandomizedCoversEveryTransientType) {
  CampaignConfig config;
  config.fault_count = 12;
  config.crash_count = 3;
  // Migration stream drops are opt-in (the 0 default keeps older
  // single-host seeds' layouts untouched); opt in so coverage includes
  // the fleet fault type too.
  config.migration_drop_count = 2;
  FaultPlan plan = FaultPlan::Randomized(config);
  std::array<int, kFaultTypeCount> seen{};
  SimTime last = 0;
  for (const FaultSpec& spec : plan.specs()) {
    ++seen[static_cast<std::size_t>(spec.type)];
    EXPECT_GE(spec.at, last);  // sorted by time
    last = spec.at;
    EXPECT_LT(spec.at, config.end);
    if (spec.type == FaultType::kNetDropBurst) {
      EXPECT_EQ(spec.probability, 1.0);
    }
    if (spec.type == FaultType::kShardCrash) {
      EXPECT_FALSE(spec.target.empty());
    }
    if (spec.type == FaultType::kShardHang) {
      EXPECT_FALSE(spec.target.empty());
      EXPECT_GT(spec.duration, 0u);
    }
    if (spec.type == FaultType::kRecoveryBoxCorrupt) {
      EXPECT_FALSE(spec.target.empty());
    }
  }
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    EXPECT_GE(seen[i], 1) << FaultTypeName(static_cast<FaultType>(i));
  }
  EXPECT_EQ(seen[static_cast<std::size_t>(FaultType::kShardCrash)], 3);
  EXPECT_EQ(seen[static_cast<std::size_t>(FaultType::kShardHang)], 2);
  EXPECT_EQ(seen[static_cast<std::size_t>(FaultType::kRecoveryBoxCorrupt)],
            1);
  EXPECT_EQ(seen[static_cast<std::size_t>(FaultType::kMigrationStreamDrop)],
            2);
}

// --- Injection against a booted platform ---

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
    platform_.Settle();
  }

  // A one-window plan of `type` starting `offset` from now.
  FaultPlan WindowPlan(FaultType type, SimDuration offset,
                       SimDuration duration) {
    FaultSpec spec;
    spec.type = type;
    spec.at = platform_.sim().Now() + offset;
    spec.duration = duration;
    spec.probability = 1.0;
    FaultPlan plan;
    plan.Add(spec);
    return plan;
  }

  double GaugeValueOf(const std::string& name) {
    // Bind the snapshot: FindGauge returns a pointer into it, which must
    // not outlive the snapshot itself.
    const MetricsSnapshot snapshot = platform_.obs().metrics().Snapshot();
    const auto* gauge = snapshot.FindGauge(name);
    return gauge == nullptr ? -1.0 : gauge->value;
  }

  XoarPlatform platform_;
  DomainId guest_;
};

TEST_F(FaultInjectionTest, XsTimeoutWindowInjectsAndClears) {
  FaultInjector injector(&platform_);
  injector.Arm(WindowPlan(FaultType::kXsTimeout, 10 * kMillisecond,
                          50 * kMillisecond));
  const std::string path =
      StrFormat("/local/domain/%u/name", guest_.value());

  // Before the window: fine.
  EXPECT_TRUE(platform_.xenstore().Read(guest_, path).ok());
  platform_.sim().RunFor(15 * kMillisecond);  // inside the window
  EXPECT_EQ(platform_.xenstore().Read(guest_, path).status().code(),
            StatusCode::kUnavailable);
  // Shard callers are exempt: control traffic keeps flowing. NetBack reads
  // a node it published itself during the handshake.
  const DomainId netback_dom = platform_.shard_domain(ShardClass::kNetBack);
  EXPECT_TRUE(platform_.xenstore()
                  .Read(netback_dom,
                        BackendDir(netback_dom, guest_, kVifType) + "/state")
                  .ok());
  platform_.sim().RunFor(60 * kMillisecond);  // window closed
  EXPECT_TRUE(platform_.xenstore().Read(guest_, path).ok());
  EXPECT_GE(injector.injected_count(FaultType::kXsTimeout), 1u);
  EXPECT_EQ(injector.windows_opened(), 1u);
}

TEST_F(FaultInjectionTest, DisarmClosesOpenWindows) {
  FaultInjector injector(&platform_);
  injector.Arm(WindowPlan(FaultType::kXsTimeout, 10 * kMillisecond,
                          10 * kSecond));
  platform_.sim().RunFor(20 * kMillisecond);
  const std::string path =
      StrFormat("/local/domain/%u/name", guest_.value());
  EXPECT_FALSE(platform_.xenstore().Read(guest_, path).ok());
  injector.Disarm();
  EXPECT_TRUE(platform_.xenstore().Read(guest_, path).ok());
  EXPECT_EQ(GaugeValueOf("fault.windows.active"), 0.0);
}

TEST_F(FaultInjectionTest, BlkIoErrorAbsorbedByRetry) {
  FaultInjector injector(&platform_);
  injector.Arm(WindowPlan(FaultType::kBlkIoError, 10 * kMillisecond,
                          40 * kMillisecond));
  platform_.sim().RunFor(11 * kMillisecond);

  BlkFront* blk = platform_.blkfront(guest_);
  Status result = InternalError("never completed");
  blk->WriteBytes(0, 4096, [&](Status status) { result = status; });
  platform_.Settle(2 * kSecond);

  EXPECT_TRUE(result.ok()) << result;
  EXPECT_GE(blk->retry_attempts(), 1u);
  EXPECT_GE(blk->retry_recovered(), 1u);
  EXPECT_EQ(blk->retry_exhausted(), 0u);
  EXPECT_GE(injector.injected_count(FaultType::kBlkIoError), 1u);
  // Absorbed by backoff alone — no microreboot happened.
  EXPECT_EQ(platform_.restarts().RestartCount("BlkBack"), 0);
}

TEST_F(FaultInjectionTest, NetDropBurstRecoveredByTimeoutRetransmit) {
  NetFront* net = platform_.netfront(guest_);
  // Tight acknowledgement deadline so the test doesn't wait 250 ms per
  // dropped frame.
  NetFront::RetryConfig config;
  config.request_timeout = 20 * kMillisecond;
  net->set_retry_config(config);

  FaultInjector injector(&platform_);
  injector.Arm(WindowPlan(FaultType::kNetDropBurst, 10 * kMillisecond,
                          30 * kMillisecond));
  platform_.sim().RunFor(11 * kMillisecond);

  Status result = InternalError("never completed");
  net->SendFrame(1500, [&](Status status) { result = status; });
  platform_.Settle(2 * kSecond);

  EXPECT_TRUE(result.ok()) << result;
  EXPECT_GE(net->retry_attempts(), 1u);
  EXPECT_GE(net->retry_recovered(), 1u);
  EXPECT_GE(injector.injected_count(FaultType::kNetDropBurst), 1u);
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 0);
}

TEST_F(FaultInjectionTest, EvtchnDropIsRetried) {
  FaultInjector injector(&platform_);
  injector.Arm(WindowPlan(FaultType::kEvtchnDrop, 10 * kMillisecond,
                          30 * kMillisecond));
  platform_.sim().RunFor(11 * kMillisecond);

  BlkFront* blk = platform_.blkfront(guest_);
  Status result = InternalError("never completed");
  blk->WriteBytes(0, 4096, [&](Status status) { result = status; });
  // The lost notification stalls the request until the on-ring deadline
  // (2 s) retransmits it, so settle past one full deadline.
  platform_.Settle(5 * kSecond);

  EXPECT_TRUE(result.ok()) << result;
  EXPECT_GE(injector.injected_count(FaultType::kEvtchnDrop), 1u);
  EXPECT_GE(blk->retry_attempts(), 1u);
}

TEST_F(FaultInjectionTest, GrantMapFailureRetriedOnReconnect) {
  FaultInjector injector(&platform_);
  // Cover the reconnect that follows a BlkBack microreboot with failing
  // grant maps; the backend's connect backoff must carry it through.
  FaultPlan plan;
  FaultSpec crash;
  crash.type = FaultType::kShardCrash;
  crash.target = "BlkBack";
  crash.at = platform_.sim().Now() + 10 * kMillisecond;
  plan.Add(crash);
  FaultSpec window;
  window.type = FaultType::kGrantMapFail;
  window.at = platform_.sim().Now() + 10 * kMillisecond;
  window.duration = 400 * kMillisecond;
  window.probability = 1.0;
  plan.Add(window);
  injector.Arm(plan);

  platform_.Settle(5 * kSecond);
  EXPECT_GE(injector.injected_count(FaultType::kGrantMapFail), 1u);
  EXPECT_TRUE(platform_.blkback().IsVbdConnected(guest_));
  Status result = InternalError("never completed");
  platform_.blkfront(guest_)->WriteBytes(0, 4096,
                                         [&](Status s) { result = s; });
  platform_.Settle(2 * kSecond);
  EXPECT_TRUE(result.ok()) << result;
}

TEST_F(FaultInjectionTest, XenStoreTimeoutDuringReconnectIsRetried) {
  FaultInjector injector(&platform_);
  // The frontend (a guest caller, not exempt) renegotiates through
  // XenStore right when xs_timeout is firing; its handshake retry ladder
  // must carry it past the window.
  FaultPlan plan;
  FaultSpec crash;
  crash.type = FaultType::kShardCrash;
  crash.target = "BlkBack";
  crash.at = platform_.sim().Now() + 10 * kMillisecond;
  plan.Add(crash);
  FaultSpec window;
  window.type = FaultType::kXsTimeout;
  window.at = platform_.sim().Now() + 10 * kMillisecond;
  window.duration = 600 * kMillisecond;
  window.probability = 1.0;
  plan.Add(window);
  injector.Arm(plan);

  platform_.Settle(5 * kSecond);
  EXPECT_GE(injector.injected_count(FaultType::kXsTimeout), 1u);
  EXPECT_TRUE(platform_.blkfront(guest_)->connected());
  EXPECT_TRUE(platform_.blkback().IsVbdConnected(guest_));
}

TEST_F(FaultInjectionTest, ShardCrashViaPlanRestartsAndRecovers) {
  FaultInjector injector(&platform_);
  FaultPlan plan;
  FaultSpec crash;
  crash.type = FaultType::kShardCrash;
  crash.target = "NetBack";
  crash.at = platform_.sim().Now() + 10 * kMillisecond;
  crash.fast_recovery = true;
  plan.Add(crash);
  injector.Arm(plan);

  platform_.sim().RunFor(20 * kMillisecond);
  EXPECT_TRUE(platform_.restarts().IsRestarting("NetBack"));
  // Blast radius as promised: the host survives and the disk path works
  // through the outage (the failure_test contract, now plan-driven).
  EXPECT_FALSE(platform_.hv().host_failed());
  Status result = InternalError("never completed");
  platform_.blkfront(guest_)->WriteBytes(0, 4096,
                                         [&](Status s) { result = s; });
  platform_.Settle(2 * kSecond);
  EXPECT_TRUE(result.ok()) << result;

  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 1);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
  EXPECT_EQ(injector.injected_count(FaultType::kShardCrash), 1u);
}

TEST_F(FaultInjectionTest, CrashDuringRestartIsSkippedNotFatal) {
  FaultInjector injector(&platform_);
  FaultPlan plan;
  for (int i = 0; i < 2; ++i) {
    FaultSpec crash;
    crash.type = FaultType::kShardCrash;
    crash.target = "NetBack";
    // 10 ms apart: the second lands mid-downtime and must be refused.
    crash.at = platform_.sim().Now() + (10 + i * 10) * kMillisecond;
    plan.Add(crash);
  }
  injector.Arm(plan);
  platform_.Settle(2 * kSecond);

  EXPECT_EQ(injector.injected_count(FaultType::kShardCrash), 1u);
  EXPECT_EQ(injector.crashes_skipped(), 1u);
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 1);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
}

TEST_F(FaultInjectionTest, ShardHangViaPlanIsDetectedByWatchdog) {
  FaultInjector injector(&platform_);
  FaultPlan plan;
  FaultSpec hang;
  hang.type = FaultType::kShardHang;
  hang.target = "NetBack";
  hang.at = platform_.sim().Now() + 10 * kMillisecond;
  hang.duration = 300 * kMillisecond;
  plan.Add(hang);
  injector.Arm(plan);
  platform_.Settle(2 * kSecond);

  EXPECT_EQ(injector.injected_count(FaultType::kShardHang), 1u);
  Watchdog* watchdog = platform_.watchdog();
  ASSERT_NE(watchdog, nullptr);
  EXPECT_EQ(watchdog->hangs_detected(), 1u);
  EXPECT_LE(watchdog->max_hang_detection_latency(),
            kHeartbeatTimeout);
  EXPECT_GE(platform_.restarts().RestartCount("NetBack"), 1);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
}

TEST_F(FaultInjectionTest, RecoveryBoxCorruptionViaPlanIsRejected) {
  FaultInjector injector(&platform_);
  FaultPlan plan;
  FaultSpec corrupt;
  corrupt.type = FaultType::kRecoveryBoxCorrupt;
  corrupt.target = "NetBack";
  corrupt.at = platform_.sim().Now() + 10 * kMillisecond;
  plan.Add(corrupt);
  injector.Arm(plan);
  platform_.Settle(2 * kSecond);

  EXPECT_EQ(injector.injected_count(FaultType::kRecoveryBoxCorrupt), 1u);
  // The fast restart that followed the corruption rejected the box and ran
  // at the slow, from-scratch downtime — poisoned state never resumed.
  EXPECT_EQ(platform_.restarts().BoxesRejected("NetBack"), 1);
  EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
            kSlowRestartDowntime);
  RecoveryBox& box = platform_.snapshots().recovery_box(
      platform_.shard_domain(ShardClass::kNetBack));
  EXPECT_TRUE(box.Validate().ok());
  EXPECT_TRUE(box.Contains("nic-config"));
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
}

TEST_F(FaultInjectionTest, MicrorebootUpGaugeSurvivesRestart) {
  EXPECT_EQ(GaugeValueOf("NetBack.microreboot.up"), 1.0);
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", true).ok());
  // During the outage the gauge reads 0 — and crucially it still *exists*:
  // the dying instance must not take the engine's registry entries with it.
  EXPECT_EQ(GaugeValueOf("NetBack.microreboot.up"), 0.0);
  platform_.Settle(kSecond);
  EXPECT_EQ(GaugeValueOf("NetBack.microreboot.up"), 1.0);

  // Counters registered before the reboot kept their history.
  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* restarts = snapshot.FindCounter("NetBack.microreboot.restarts");
  ASSERT_NE(restarts, nullptr);
  EXPECT_EQ(restarts->value, 1u);
}

TEST_F(FaultInjectionTest, TransferCompletesAcrossRandomizedCampaign) {
  FaultInjector injector(&platform_);
  CampaignConfig config;
  config.seed = 7;
  config.fault_count = 8;
  config.crash_count = 1;
  config.start = platform_.sim().Now();
  config.end = config.start + 2 * kSecond;
  injector.Arm(FaultPlan::Randomized(config));

  auto result =
      RunWget(&platform_, guest_, 64ull * 1000 * 1000, WgetSink::kDevNull);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bytes, 64u * 1000 * 1000);
  EXPECT_FALSE(platform_.hv().host_failed());
}

}  // namespace
}  // namespace xoar
