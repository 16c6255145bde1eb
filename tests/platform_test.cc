#include <gtest/gtest.h>

#include "src/core/xoar_platform.h"
#include "src/ctl/monolithic_platform.h"

namespace xoar {
namespace {

// A guest without a vcpu is refused before anything is built for it: no
// domain and no XenStore node is left behind, on either platform.
void ExpectGuestWithoutVcpusRefused(Platform& platform) {
  ASSERT_TRUE(platform.Boot().ok());
  const std::size_t live = platform.hv().LiveDomainCount();
  const std::size_t nodes = platform.xenstore().store().NodeCount();
  for (int vcpus : {0, -3}) {
    GuestSpec spec;
    spec.vcpus = vcpus;
    EXPECT_EQ(platform.CreateGuest(spec).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(platform.hv().LiveDomainCount(), live);
    EXPECT_EQ(platform.xenstore().store().NodeCount(), nodes);
  }
}

// --- Stock platform ---

TEST(MonolithicPlatformTest, BootMilestonesMatchTable62) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_NEAR(ToSeconds(platform.console_ready_at()), 38.9, 0.5);
  EXPECT_NEAR(ToSeconds(platform.network_ready_at()), 42.2, 0.5);
}

TEST(MonolithicPlatformTest, Dom0IsControlDomainWithTwoVcpus) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  const Domain* dom0 = platform.hv().domain(platform.dom0());
  ASSERT_NE(dom0, nullptr);
  EXPECT_TRUE(dom0->is_control_domain());
  EXPECT_EQ(dom0->config().vcpus, 2);  // XenServer configuration (§6.1)
  EXPECT_EQ(dom0->config().memory_mb, 750u);
}

TEST(MonolithicPlatformTest, DoubleBootRejected) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_EQ(platform.Boot().code(), StatusCode::kFailedPrecondition);
}

TEST(MonolithicPlatformTest, CreateGuestBeforeBootFails) {
  MonolithicPlatform platform;
  EXPECT_EQ(platform.CreateGuest(GuestSpec{}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MonolithicPlatformTest, GuestWithoutVcpusRefused) {
  MonolithicPlatform platform;
  ExpectGuestWithoutVcpusRefused(platform);
}

// Every component reports to its own platform's Obs, so two platforms in
// one process never add into each other's gauges.
TEST(MonolithicPlatformTest, TwoPlatformsKeepSeparateToolstackGauges) {
  MonolithicPlatform first;
  MonolithicPlatform second;
  for (MonolithicPlatform* platform : {&first, &second}) {
    ASSERT_TRUE(platform->Boot().ok());
    ASSERT_TRUE(platform->CreateGuest(GuestSpec{}).ok());
  }
  for (MonolithicPlatform* platform : {&first, &second}) {
    const MetricsSnapshot snap = platform->obs().metrics().Snapshot();
    const auto* guests = snap.FindGauge("toolstack.slice.guests");
    ASSERT_NE(guests, nullptr);
    EXPECT_EQ(guests->value, 1.0);
  }
}

TEST(MonolithicPlatformTest, GuestDestroyCleansUp) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});
  const std::size_t live = platform.hv().LiveDomainCount();
  ASSERT_TRUE(platform.DestroyGuest(guest).ok());
  EXPECT_EQ(platform.hv().LiveDomainCount(), live - 1);
  EXPECT_EQ(platform.netfront(guest), nullptr);
}

TEST(MonolithicPlatformTest, ServiceDomainsAllResolveToDom0) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{.hvm = true});
  for (ServiceKind kind :
       {ServiceKind::kDeviceEmulator, ServiceKind::kNetBack,
        ServiceKind::kBlkBack, ServiceKind::kToolstack, ServiceKind::kXenStore,
        ServiceKind::kConsole}) {
    EXPECT_EQ(platform.ServiceDomainOf(kind, guest), platform.dom0());
  }
}

TEST(MonolithicPlatformTest, CoLocationPenaltyAppliesOnlyWhenBothActive) {
  MonolithicPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});
  const double solo_net = platform.EffectiveNetRateBps(guest);
  {
    auto net = platform.BeginIoStream(Platform::IoKind::kNet);
    EXPECT_DOUBLE_EQ(platform.EffectiveNetRateBps(guest), solo_net);
    auto disk = platform.BeginIoStream(Platform::IoKind::kDisk);
    EXPECT_LT(platform.EffectiveNetRateBps(guest), solo_net);
  }
  EXPECT_DOUBLE_EQ(platform.EffectiveNetRateBps(guest), solo_net);
}

// --- Xoar platform ---

TEST(XoarPlatformTest, BootMilestonesMatchTable62) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_NEAR(ToSeconds(platform.console_ready_at()), 25.9, 0.5);
  EXPECT_NEAR(ToSeconds(platform.network_ready_at()), 36.6, 0.5);
}

TEST(XoarPlatformTest, BootIsFasterThanDom0) {
  MonolithicPlatform dom0;
  XoarPlatform xoar;
  ASSERT_TRUE(dom0.Boot().ok());
  ASSERT_TRUE(xoar.Boot().ok());
  const double console_speedup = ToSeconds(dom0.console_ready_at()) /
                                 ToSeconds(xoar.console_ready_at());
  const double ping_speedup = ToSeconds(dom0.network_ready_at()) /
                              ToSeconds(xoar.network_ready_at());
  EXPECT_NEAR(console_speedup, 1.5, 0.1);   // Table 6.2
  EXPECT_NEAR(ping_speedup, 1.15, 0.05);    // Table 6.2
}

TEST(XoarPlatformTest, GuestWithoutVcpusRefused) {
  XoarPlatform platform;
  ExpectGuestWithoutVcpusRefused(platform);
}

TEST(XoarPlatformTest, NoControlDomainExists) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  for (DomainId id : platform.hv().AllDomains()) {
    EXPECT_FALSE(platform.hv().domain(id)->is_control_domain());
  }
}

TEST(XoarPlatformTest, BootstrapperSelfDestructsAfterBoot) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  const Domain* boot =
      platform.hv().domain(platform.shard_domain(ShardClass::kBootstrapper));
  ASSERT_NE(boot, nullptr);
  EXPECT_EQ(boot->state(), DomainState::kDead);
}

TEST(XoarPlatformTest, EveryShardRunsOneVcpu) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  for (ShardClass cls :
       {ShardClass::kXenStoreLogic, ShardClass::kXenStoreState,
        ShardClass::kConsoleManager, ShardClass::kBuilder, ShardClass::kPciBack,
        ShardClass::kNetBack, ShardClass::kBlkBack, ShardClass::kToolstack}) {
    const Domain* dom = platform.hv().domain(platform.shard_domain(cls));
    ASSERT_NE(dom, nullptr) << DescriptorFor(cls).name;
    EXPECT_EQ(dom->config().vcpus, 1) << DescriptorFor(cls).name;
    EXPECT_TRUE(dom->is_shard()) << DescriptorFor(cls).name;
  }
}

TEST(XoarPlatformTest, ShardMemoryMatchesTable61) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  for (const auto& descriptor : ShardInventory()) {
    if (descriptor.shard_class == ShardClass::kBootstrapper ||
        descriptor.shard_class == ShardClass::kQemuVm) {
      continue;
    }
    const Domain* dom =
        platform.hv().domain(platform.shard_domain(descriptor.shard_class));
    ASSERT_NE(dom, nullptr) << descriptor.name;
    EXPECT_EQ(dom->config().memory_mb, descriptor.memory_mb)
        << descriptor.name;
  }
}

TEST(XoarPlatformTest, FullConfigurationUses896Mb) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  // 2*32 + 128 + 64 + 256 + 128 + 128 + 128 = 896 (§6.1.1 upper bound).
  EXPECT_EQ(platform.ControlPlaneMemoryMb(), 896u);
}

TEST(XoarPlatformTest, MinimalConfigurationUses512Mb) {
  XoarPlatform::Config config;
  config.console_manager_enabled = false;
  config.destroy_pciback_after_boot = true;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  // 2*32 + 64 + 128 + 128 + 128 = 512 (§6.1.1 lower bound).
  EXPECT_EQ(platform.ControlPlaneMemoryMb(), 512u);
}

TEST(XoarPlatformTest, PciBackSelfDestructReleasesPrivilege) {
  XoarPlatform::Config config;
  config.destroy_pciback_after_boot = true;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  const Domain* pciback =
      platform.hv().domain(platform.shard_domain(ShardClass::kPciBack));
  EXPECT_EQ(pciback->state(), DomainState::kDead);
  // Guests still work: steady state needs no PCI config multiplexing (§5.3).
  EXPECT_TRUE(platform.CreateGuest(GuestSpec{}).ok());
}

TEST(XoarPlatformTest, GuestCreationLinksExpectedShards) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});
  const Domain* dom = platform.hv().domain(guest);
  EXPECT_TRUE(dom->MayUseShard(platform.shard_domain(ShardClass::kNetBack)));
  EXPECT_TRUE(dom->MayUseShard(platform.shard_domain(ShardClass::kBlkBack)));
  EXPECT_TRUE(
      dom->MayUseShard(platform.shard_domain(ShardClass::kXenStoreLogic)));
}

TEST(XoarPlatformTest, HvmGuestGetsPrivateEmulator) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId g1 = *platform.CreateGuest(GuestSpec{.name = "hvm1", .hvm = true});
  DomainId g2 = *platform.CreateGuest(GuestSpec{.name = "hvm2", .hvm = true});
  const DomainId qemu1 =
      platform.ServiceDomainOf(ServiceKind::kDeviceEmulator, g1);
  const DomainId qemu2 =
      platform.ServiceDomainOf(ServiceKind::kDeviceEmulator, g2);
  ASSERT_TRUE(qemu1.valid());
  ASSERT_TRUE(qemu2.valid());
  EXPECT_NE(qemu1, qemu2);  // one QemuVM per guest
  // Each emulator is privileged for exactly its own guest.
  EXPECT_TRUE(platform.hv().domain(qemu1)->IsPrivilegedFor(g1));
  EXPECT_FALSE(platform.hv().domain(qemu1)->IsPrivilegedFor(g2));
}

TEST(XoarPlatformTest, ConstraintGroupsPreventSharing) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  ASSERT_TRUE(platform
                  .CreateGuest(GuestSpec{.name = "tenant-a",
                                         .constraint_tag = "tenant-a"})
                  .ok());
  // A different tag cannot share the single NetBack/BlkBack pair: creation
  // must fail rather than force sharing (§3.2.1).
  auto denied = platform.CreateGuest(
      GuestSpec{.name = "tenant-b", .constraint_tag = "tenant-b"});
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  // Same tag is fine.
  EXPECT_TRUE(platform
                  .CreateGuest(GuestSpec{.name = "tenant-a2",
                                         .constraint_tag = "tenant-a"})
                  .ok());
}

TEST(XoarPlatformTest, ToolstackQuotaEnforced) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  platform.toolstack().set_memory_quota_mb(1536);
  EXPECT_TRUE(platform.CreateGuest(GuestSpec{.memory_mb = 1024}).ok());
  auto denied = platform.CreateGuest(GuestSpec{.memory_mb = 1024});
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
}

TEST(XoarPlatformTest, SecondToolstackManagesItsOwnGuests) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  auto index = platform.AddToolstack();
  ASSERT_TRUE(index.ok());
  platform.Settle();
  Toolstack& ts2 = platform.toolstack(*index);
  auto guest = ts2.CreateGuest(GuestSpec{.name = "second-ts-guest"});
  ASSERT_TRUE(guest.ok());
  platform.Settle();
  EXPECT_TRUE(ts2.PauseGuest(*guest).ok());
  EXPECT_TRUE(ts2.UnpauseGuest(*guest).ok());
  // The first toolstack may not manage it (parent-toolstack audit, §5.6).
  EXPECT_EQ(platform.toolstack(0).PauseGuest(*guest).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(platform.hv()
                .PauseDomain(platform.toolstack(0).self(), *guest)
                .code(),
            StatusCode::kPermissionDenied);  // and the hypervisor refuses
}

TEST(XoarPlatformTest, BuilderIsOnlyForeignMapShardPostBoot) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  int with_foreign_map = 0;
  for (DomainId id : platform.hv().AllDomains()) {
    const Domain* dom = platform.hv().domain(id);
    if (dom->is_shard() &&
        dom->hypercall_policy().Permits(Hypercall::kForeignMemoryMap)) {
      ++with_foreign_map;
      EXPECT_EQ(id, platform.shard_domain(ShardClass::kBuilder));
    }
  }
  EXPECT_EQ(with_foreign_map, 1);  // §6.2: only the Builder remains
}

TEST(XoarPlatformTest, SerializedBootIsSlower) {
  XoarPlatform::Config serial_config;
  serial_config.serialize_boot = true;
  XoarPlatform serial(serial_config);
  XoarPlatform parallel;
  ASSERT_TRUE(serial.Boot().ok());
  ASSERT_TRUE(parallel.Boot().ok());
  EXPECT_GT(serial.network_ready_at(), parallel.network_ready_at());
  EXPECT_GT(serial.console_ready_at(), parallel.console_ready_at());
}

TEST(XoarPlatformTest, MultipleControllersYieldMultipleDriverDomains) {
  // §6.1.1: "Systems with multiple network or disk controllers can have
  // several instances of the NetBack and BlkBack shards."
  XoarPlatform::Config config;
  config.num_nics = 2;
  config.num_disk_controllers = 2;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_EQ(platform.netback_count(), 2);
  EXPECT_EQ(platform.blkback_count(), 2);
  EXPECT_NE(platform.netback(0).self(), platform.netback(1).self());
  // Each NetBack owns exactly its own NIC.
  EXPECT_NE(platform.netback(0).nic(), platform.netback(1).nic());
  // Control-plane memory grows by one shard per extra controller.
  EXPECT_EQ(platform.ControlPlaneMemoryMb(), 896u + 2 * 128u);
}

TEST(XoarPlatformTest, TwoNetBacksSatisfyTwoConstraintGroups) {
  XoarPlatform::Config config;
  config.num_nics = 2;
  config.num_disk_controllers = 2;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  // With two driver-domain pairs, two mutually-distrusting tenants can
  // both be served without sharing (§3.2.1).
  auto a = platform.CreateGuest(
      GuestSpec{.name = "a", .memory_mb = 512, .constraint_tag = "tenant-a"});
  auto b = platform.CreateGuest(
      GuestSpec{.name = "b", .memory_mb = 512, .constraint_tag = "tenant-b"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(platform.netback_of(*a)->self(), platform.netback_of(*b)->self());
  EXPECT_NE(platform.blkback_of(*a)->self(), platform.blkback_of(*b)->self());
  // A third tag still fails: both pairs are now claimed.
  EXPECT_FALSE(platform
                   .CreateGuest(GuestSpec{.name = "c",
                                          .memory_mb = 256,
                                          .constraint_tag = "tenant-c"})
                   .ok());
}

TEST(XoarPlatformTest, SecondaryDriverDomainsRestartIndependently) {
  XoarPlatform::Config config;
  config.num_nics = 2;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});  // lands on NetBack #0
  ASSERT_TRUE(platform.restarts().RestartNow("NetBack-1", true).ok());
  // The guest on NetBack #0 is untouched by NetBack #1's reboot.
  EXPECT_TRUE(platform.netback(0).IsVifConnected(guest));
  platform.Settle(kSecond);
  EXPECT_EQ(platform.restarts().RestartCount("NetBack-1"), 1);
}

TEST(XoarPlatformTest, GuestConsoleTranscriptWorks) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});
  ASSERT_NE(platform.console(), nullptr);
  ASSERT_TRUE(platform.console()->WriteFromGuest(guest, "booting...\n").ok());
  auto transcript = platform.console()->Transcript(guest);
  ASSERT_TRUE(transcript.ok());
  EXPECT_EQ(*transcript, "booting...\n");
}

}  // namespace
}  // namespace xoar
