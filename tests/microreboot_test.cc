#include <gtest/gtest.h>

#include "src/core/microreboot.h"
#include "src/core/snapshot.h"
#include "src/core/xoar_platform.h"

namespace xoar {
namespace {

// --- SnapshotManager / RecoveryBox ---

class CounterComponent : public Snapshottable {
 public:
  std::string SaveState() const override { return std::to_string(counter); }
  void RestoreState(const std::string& state) override {
    counter = std::stoi(state);
  }
  int counter = 0;
};

TEST(SnapshotTest, RollbackRestoresPostInitImage) {
  SnapshotManager manager;
  CounterComponent component;
  component.counter = 7;  // state at the ready-to-serve point
  ASSERT_TRUE(manager.TakeSnapshot(DomainId(3), &component).ok());
  component.counter = 99;  // "tainted" by serving requests
  auto cost = manager.Rollback(DomainId(3));
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(component.counter, 7);
  EXPECT_GT(*cost, 0u);
  EXPECT_EQ(manager.rollbacks(), 1u);
}

TEST(SnapshotTest, SecondSnapshotRejected) {
  SnapshotManager manager;
  CounterComponent component;
  ASSERT_TRUE(manager.TakeSnapshot(DomainId(3), &component).ok());
  EXPECT_EQ(manager.TakeSnapshot(DomainId(3), &component).code(),
            StatusCode::kAlreadyExists);
}

TEST(SnapshotTest, RollbackWithoutSnapshotFails) {
  SnapshotManager manager;
  EXPECT_EQ(manager.Rollback(DomainId(3)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RecoveryBoxSurvivesRollback) {
  SnapshotManager manager;
  CounterComponent component;
  ASSERT_TRUE(manager.TakeSnapshot(DomainId(3), &component).ok());
  manager.recovery_box(DomainId(3)).Put("open-connection", "guest-5:ring-2");
  ASSERT_TRUE(manager.Rollback(DomainId(3)).ok());
  auto value = manager.recovery_box(DomainId(3)).Get("open-connection");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "guest-5:ring-2");
}

TEST(SnapshotTest, RollbackCostGrowsWithStateSize) {
  SnapshotManager manager;
  class BigComponent : public Snapshottable {
   public:
    explicit BigComponent(std::size_t n) : state(n, 'x') {}
    std::string SaveState() const override { return state; }
    void RestoreState(const std::string& s) override { state = s; }
    std::string state;
  };
  BigComponent small(1'000), big(10'000'000);
  ASSERT_TRUE(manager.TakeSnapshot(DomainId(1), &small).ok());
  ASSERT_TRUE(manager.TakeSnapshot(DomainId(2), &big).ok());
  EXPECT_LT(*manager.Rollback(DomainId(1)), *manager.Rollback(DomainId(2)));
}

TEST(RecoveryBoxTest, BasicOperations) {
  RecoveryBox box;
  box.Put("k", "v");
  EXPECT_TRUE(box.Contains("k"));
  EXPECT_EQ(*box.Get("k"), "v");
  EXPECT_EQ(box.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(box.size(), 1u);
  EXPECT_GT(box.bytes(), 0u);
  EXPECT_EQ(box.Keys(), (std::vector<std::string>{"k"}));
  box.Erase("k");
  EXPECT_FALSE(box.Contains("k"));
}

TEST(RecoveryBoxTest, ChecksumsDetectCorruption) {
  RecoveryBox box;
  box.Put("nic-config", "slot=0000:04:00.0 rate=1000000000");
  EXPECT_TRUE(box.Validate().ok());
  ASSERT_TRUE(box.CorruptForTest("nic-config").ok());
  // The box as a whole and the individual read both refuse corrupt data.
  EXPECT_EQ(box.Validate().code(), StatusCode::kInternal);
  EXPECT_EQ(box.Get("nic-config").status().code(), StatusCode::kInternal);
  // A fresh Put re-checksums the entry: the box is trustworthy again.
  box.Put("nic-config", "slot=0000:04:00.0 rate=1000000000");
  EXPECT_TRUE(box.Validate().ok());
  EXPECT_TRUE(box.Get("nic-config").ok());
}

TEST(RecoveryBoxTest, CorruptForTestEdgeCases) {
  RecoveryBox box;
  EXPECT_EQ(box.CorruptForTest("missing").code(), StatusCode::kNotFound);
  box.Put("empty", "");
  // An empty value has no byte to flip.
  EXPECT_EQ(box.CorruptForTest("empty").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(box.Validate().ok());
}

// --- RestartEngine on a live platform ---

class RestartEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
  }

  XoarPlatform platform_;
  DomainId guest_;
};

TEST_F(RestartEngineTest, SingleRestartCycle) {
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", /*fast=*/false).ok());
  EXPECT_TRUE(platform_.restarts().IsRestarting("NetBack"));
  EXPECT_FALSE(platform_.netback().IsVifConnected(guest_));
  const Domain* netback =
      platform_.hv().domain(platform_.shard_domain(ShardClass::kNetBack));
  EXPECT_EQ(netback->state(), DomainState::kRebooting);
  platform_.Settle(kSlowRestartDowntime + 100 * kMillisecond);
  EXPECT_FALSE(platform_.restarts().IsRestarting("NetBack"));
  EXPECT_EQ(netback->state(), DomainState::kRunning);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 1);
}

TEST_F(RestartEngineTest, FastRestartHasShorterDowntime) {
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", /*fast=*/true).ok());
  EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
            kFastRestartDowntime);
  platform_.Settle(kSecond);
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", /*fast=*/false).ok());
  EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
            kSlowRestartDowntime);
}

TEST_F(RestartEngineTest, DowntimeMatchesPaperMeasurements) {
  EXPECT_EQ(kSlowRestartDowntime, FromMilliseconds(260));
  EXPECT_EQ(kFastRestartDowntime, FromMilliseconds(140));
}

TEST_F(RestartEngineTest, RestartDuringRestartRejected) {
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", false).ok());
  EXPECT_EQ(platform_.restarts().RestartNow("NetBack", false).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RestartEngineTest, UnknownComponentRejected) {
  EXPECT_EQ(platform_.restarts().RestartNow("NoSuch", false).code(),
            StatusCode::kNotFound);
}

TEST_F(RestartEngineTest, PeriodicRestartsAccumulate) {
  ASSERT_TRUE(platform_.EnableNetBackRestarts(FromSeconds(1), false).ok());
  platform_.Settle(FromSeconds(10) + 500 * kMillisecond);
  const int count = platform_.restarts().RestartCount("NetBack");
  EXPECT_GE(count, 8);
  EXPECT_LE(count, 10);
  ASSERT_TRUE(platform_.DisableNetBackRestarts().ok());
  platform_.Settle(FromSeconds(5));
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), count);
}

TEST_F(RestartEngineTest, GuestIoSurvivesPeriodicRestarts) {
  ASSERT_TRUE(platform_.EnableNetBackRestarts(FromSeconds(1), false).ok());
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  for (int i = 0; i < 32; ++i) {
    blk->WriteBytes(static_cast<std::uint64_t>(i) * kMiB, 64 * kKiB,
                    [&](Status s) {
                      if (s.ok()) {
                        ++completions;
                      }
                    });
  }
  platform_.Settle(FromSeconds(5));
  EXPECT_EQ(completions, 32);  // BlkBack unaffected by NetBack restarts
}

TEST_F(RestartEngineTest, RestartsAppearInAuditLog) {
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", false).ok());
  platform_.Settle(kSecond);
  bool found = false;
  for (const auto& event : platform_.audit().events()) {
    if (event.kind == AuditEventKind::kShardRestarted &&
        event.detail == "NetBack") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RestartEngineTest, BlkBackRestartsIndependently) {
  ASSERT_TRUE(platform_.restarts().RestartNow("BlkBack", false).ok());
  // NetBack stays connected throughout.
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
  platform_.Settle(kSecond);
  EXPECT_TRUE(platform_.blkback().IsVbdConnected(guest_));
  EXPECT_EQ(platform_.restarts().RestartCount("BlkBack"), 1);
}

TEST_F(RestartEngineTest, RecoveryBoxCarriesDriverConfig) {
  RecoveryBox& box = platform_.snapshots().recovery_box(
      platform_.shard_domain(ShardClass::kNetBack));
  EXPECT_TRUE(box.Contains("nic-config"));
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", /*fast=*/true).ok());
  platform_.Settle(kSecond);
  EXPECT_TRUE(box.Contains("nic-config"));  // survived the reboot
}

TEST_F(RestartEngineTest, CorruptRecoveryBoxDowngradesFastRestart) {
  RecoveryBox& box = platform_.snapshots().recovery_box(
      platform_.shard_domain(ShardClass::kNetBack));
  ASSERT_TRUE(box.CorruptForTest("nic-config").ok());

  // The fast path validates before trusting the box: the corrupt box is
  // discarded and the cycle runs at the slow, from-scratch downtime.
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", /*fast=*/true).ok());
  EXPECT_EQ(platform_.restarts().LastDowntime("NetBack"),
            kSlowRestartDowntime);
  EXPECT_EQ(platform_.restarts().BoxesRejected("NetBack"), 1);
  EXPECT_EQ(platform_.restarts().TotalBoxesRejected(), 1);
  platform_.Settle(kSecond);

  // The resume hook repopulated the box with freshly checksummed config.
  EXPECT_TRUE(box.Contains("nic-config"));
  EXPECT_TRUE(box.Validate().ok());
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));

  bool rejection_audited = false;
  for (const auto& event : platform_.audit().events()) {
    if (event.kind == AuditEventKind::kRecoveryBoxRejected &&
        event.detail.find("NetBack") != std::string::npos) {
      rejection_audited = true;
    }
  }
  EXPECT_TRUE(rejection_audited);

  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* rejected =
      snapshot.FindCounter("NetBack.microreboot.box_rejected");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value, 1u);
}

TEST_F(RestartEngineTest, SkippedPeriodicCyclesAreCounted) {
  // 50 ms interval against a 140 ms downtime: most ticks land mid-restart
  // and must be skipped, not queued.
  ASSERT_TRUE(platform_.EnableNetBackRestarts(50 * kMillisecond, true).ok());
  platform_.Settle(2 * kSecond);
  ASSERT_TRUE(platform_.DisableNetBackRestarts().ok());

  EXPECT_GT(platform_.restarts().RestartCount("NetBack"), 0);
  const int skipped = platform_.restarts().SkippedCycles("NetBack");
  EXPECT_GT(skipped, 0);
  const auto snapshot = platform_.obs().metrics().Snapshot();
  const auto* counter = snapshot.FindCounter("NetBack.microreboot.skipped");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, static_cast<std::uint64_t>(skipped));
}

TEST_F(RestartEngineTest, TwoComponentsRestartConcurrently) {
  ASSERT_TRUE(platform_.restarts().RestartNow("NetBack", false).ok());
  ASSERT_TRUE(platform_.restarts().RestartNow("BlkBack", false).ok());
  EXPECT_TRUE(platform_.restarts().IsRestarting("NetBack"));
  EXPECT_TRUE(platform_.restarts().IsRestarting("BlkBack"));

  platform_.Settle(kSecond);
  EXPECT_EQ(platform_.restarts().RestartCount("NetBack"), 1);
  EXPECT_EQ(platform_.restarts().RestartCount("BlkBack"), 1);
  EXPECT_TRUE(platform_.netback().IsVifConnected(guest_));
  EXPECT_TRUE(platform_.blkback().IsVbdConnected(guest_));
}

TEST(RestartEngineDeadDomainTest, DeadDomainCanBeMicrorebooted) {
  // RestartNow runs at the crash instant, before any heartbeat deadline,
  // so the engine's own dead-domain path runs, not the watchdog's.
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  auto guest = platform.CreateGuest(GuestSpec{});
  ASSERT_TRUE(guest.ok());
  platform.Settle();

  const DomainId dom = platform.shard_domain(ShardClass::kNetBack);
  platform.hv().ReportCrash(dom);
  ASSERT_EQ(platform.hv().domain(dom)->state(), DomainState::kDead);

  ASSERT_TRUE(platform.restarts().RestartNow("NetBack", false).ok());
  platform.Settle(kSecond);
  EXPECT_EQ(platform.hv().domain(dom)->state(), DomainState::kRunning);
  EXPECT_TRUE(platform.netback().IsVifConnected(*guest));
}

}  // namespace
}  // namespace xoar
