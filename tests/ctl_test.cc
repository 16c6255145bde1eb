#include <gtest/gtest.h>

#include "src/core/xoar_platform.h"
#include "src/ctl/migration.h"
#include "src/ctl/monolithic_platform.h"
#include "src/drv/xenbus.h"

namespace xoar {
namespace {

// --- Builder (§5.2, §5.6) ---

class BuilderTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(platform_.Boot().ok()); }
  XoarPlatform platform_;
};

TEST_F(BuilderTest, UnknownImageWithoutBootloaderFails) {
  BuildRequest request;
  request.config.name = "custom";
  request.config.memory_mb = 64;
  request.image = "my-custom-kernel";
  request.allow_bootloader = false;
  auto result =
      platform_.builder().BuildVm(platform_.toolstack().self(), request);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(BuilderTest, UnknownImageFallsBackToPvBootloader) {
  // §5.2: "If a guest needs to run its own kernel, the Builder instantiates
  // a VM with a special bootloader, which loads the user's kernel from
  // within the guest VM."
  BuildRequest request;
  request.config.name = "custom";
  request.config.memory_mb = 64;
  request.image = "my-custom-kernel";
  request.allow_bootloader = true;
  auto guest =
      platform_.builder().BuildVm(platform_.toolstack().self(), request);
  ASSERT_TRUE(guest.ok());
  auto image = platform_.xenstore().store().Read(
      platform_.shard_domain(ShardClass::kBuilder),
      DomainDir(*guest) + "/image");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(*image, kPvBootloaderImage);
}

TEST_F(BuilderTest, GuestRegisteredInXenStoreWithToolstackAcl) {
  DomainId guest = *platform_.CreateGuest(GuestSpec{.name = "registered"});
  XsShardedStore& store = platform_.xenstore().store();
  const DomainId builder = platform_.shard_domain(ShardClass::kBuilder);
  auto name = store.Read(builder, DomainDir(guest) + "/name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "registered");
  // The guest owns its directory; the parent toolstack has rw via ACL.
  auto perms = store.GetPerms(builder, DomainDir(guest));
  ASSERT_TRUE(perms.ok());
  EXPECT_EQ(perms->owner, guest);
  EXPECT_EQ(perms->acl.at(platform_.toolstack().self()), XsPerm::kReadWrite);
}

TEST_F(BuilderTest, StartInfoPageWrittenDuringBuild) {
  DomainId guest = *platform_.CreateGuest(GuestSpec{});
  // Only the Builder could have touched the guest's first frame.
  std::byte* page =
      platform_.hv().memory().PageData(platform_.hv().domain(guest)->first_pfn());
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page[0], std::byte{0x58});  // start-info magic
}

TEST_F(BuilderTest, BuildCountsTracked) {
  const std::uint64_t before = platform_.builder().builds();
  (void)*platform_.CreateGuest(GuestSpec{});
  EXPECT_EQ(platform_.builder().builds(), before + 1);
}

TEST_F(BuilderTest, StartPausedLeavesGuestPaused) {
  BuildRequest request;
  request.config.name = "paused";
  request.config.memory_mb = 64;
  request.start_paused = true;
  request.connect_xenstore = false;
  request.connect_console = false;
  auto guest =
      platform_.builder().BuildVm(platform_.toolstack().self(), request);
  ASSERT_TRUE(guest.ok());
  EXPECT_EQ(platform_.hv().domain(*guest)->state(), DomainState::kPaused);
}

// --- PCIBack & SR-IOV (§5.3) ---

class PciBackTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(platform_.Boot().ok()); }
  XoarPlatform platform_;
};

TEST_F(PciBackTest, ConfigProxyChecksAssignment) {
  DomainId guest = *platform_.CreateGuest(GuestSpec{});
  // The guest has no PCI device: config access is refused.
  EXPECT_EQ(
      platform_.pci_service().ProxyConfigRead(guest, kNicSlot, 0).status().code(),
      StatusCode::kPermissionDenied);
  // NetBack owns the NIC: access allowed.
  EXPECT_TRUE(platform_.pci_service()
                  .ProxyConfigRead(platform_.shard_domain(ShardClass::kNetBack),
                                   kNicSlot, 0)
                  .ok());
}

TEST_F(PciBackTest, VirtualFunctionsAppearOnTheBus) {
  auto vfs = platform_.pci_service().CreateVirtualFunctions(kNicSlot, 4);
  ASSERT_TRUE(vfs.ok());
  EXPECT_EQ(vfs->size(), 4u);
  for (const PciSlot& vf : *vfs) {
    auto info = platform_.pci_bus().Find(vf);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->device_class, PciClass::kNetwork);
  }
  EXPECT_TRUE(platform_.pci_service().sriov_active());
}

TEST_F(PciBackTest, SriovPinsPciBack) {
  ASSERT_TRUE(platform_.pci_service().CreateVirtualFunctions(kNicSlot, 1).ok());
  // §5.3: dynamic VF provisioning requires a persistent shard.
  EXPECT_EQ(platform_.pci_service().SelfDestruct().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PciBackTest, VfCountValidated) {
  EXPECT_FALSE(platform_.pci_service().CreateVirtualFunctions(kNicSlot, 0).ok());
  EXPECT_FALSE(
      platform_.pci_service().CreateVirtualFunctions(kNicSlot, 65).ok());
  // Serial ports don't do SR-IOV.
  EXPECT_FALSE(
      platform_.pci_service().CreateVirtualFunctions(kSerialSlot, 1).ok());
}

TEST_F(PciBackTest, SriovGuestGetsExclusiveVf) {
  auto g1 = platform_.CreateGuestWithSriovVif(GuestSpec{.name = "sriov-1"});
  auto g2 = platform_.CreateGuestWithSriovVif(GuestSpec{.name = "sriov-2"});
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  const Domain* d1 = platform_.hv().domain(*g1);
  const Domain* d2 = platform_.hv().domain(*g2);
  ASSERT_EQ(d1->pci_devices().size(), 1u);
  ASSERT_EQ(d2->pci_devices().size(), 1u);
  EXPECT_NE(*d1->pci_devices().begin(), *d2->pci_devices().begin());
  // No NetBack dependency for these guests:
  EXPECT_FALSE(
      d1->MayUseShard(platform_.shard_domain(ShardClass::kNetBack)));
}

TEST_F(PciBackTest, SriovRequiresResidentPciBack) {
  XoarPlatform::Config config;
  config.destroy_pciback_after_boot = true;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  auto guest = platform.CreateGuestWithSriovVif(GuestSpec{});
  EXPECT_EQ(guest.status().code(), StatusCode::kFailedPrecondition);
}

// --- Device emulation (§4.5.2) ---

TEST(DeviceEmulatorTest, XoarEmulatorConfinedToItsGuest) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{.name = "hvm", .hvm = true});
  DomainId other = *platform.CreateGuest(GuestSpec{.name = "other"});
  GuestRecord* record = platform.toolstack().guest(guest);
  ASSERT_NE(record->emulator, nullptr);

  // DMA emulation into its own guest works...
  auto dma = record->emulator->EmulateDma(
      platform.hv().domain(guest)->first_pfn());
  EXPECT_TRUE(dma.ok());
  EXPECT_EQ(record->emulator->dma_maps(), 1u);
  // ...but not into anyone else (checked at the hypervisor).
  EXPECT_EQ(platform.hv()
                .ForeignMap(record->qemu_domain, other,
                            platform.hv().domain(other)->first_pfn())
                .status()
                .code(),
            StatusCode::kPermissionDenied);
}

TEST(DeviceEmulatorTest, IoExitsRequireRunningEmulator) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{.name = "hvm", .hvm = true});
  GuestRecord* record = platform.toolstack().guest(guest);
  EXPECT_TRUE(record->emulator->HandleIoExit(EmulatedDevice::kSerialPort).ok());
  // Kill the QemuVM: emulation stops (guest would wedge, platform doesn't).
  ASSERT_TRUE(platform.hv()
                  .DestroyDomain(platform.toolstack().self(),
                                 record->qemu_domain)
                  .ok());
  EXPECT_EQ(record->emulator->HandleIoExit(EmulatedDevice::kSerialPort).code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(platform.hv().host_failed());
}

TEST(DeviceEmulatorTest, DeviceModelCatalogue) {
  EXPECT_EQ(DeviceEmulator::DeviceModel().size(), 5u);
  EXPECT_EQ(EmulatedDeviceName(EmulatedDevice::kNicRtl8139), "rtl8139");
}

// --- Console (§5.5) ---

TEST(ConsoleTest, PerGuestTranscriptsAreIsolated) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId g1 = *platform.CreateGuest(GuestSpec{.name = "g1"});
  DomainId g2 = *platform.CreateGuest(GuestSpec{.name = "g2"});
  ASSERT_TRUE(platform.console()->WriteFromGuest(g1, "one").ok());
  ASSERT_TRUE(platform.console()->WriteFromGuest(g2, "two").ok());
  EXPECT_EQ(*platform.console()->Transcript(g1), "one");
  EXPECT_EQ(*platform.console()->Transcript(g2), "two");
}

TEST(ConsoleTest, PhysicalSerialInputReachesConsoleManager) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  platform.serial().InjectInput("status\n");
  platform.Settle();
  EXPECT_EQ(platform.console()->DrainPhysicalInput(), "status\n");
}

TEST(ConsoleTest, DisabledConsoleManagerMeansNoConsole) {
  XoarPlatform::Config config;
  config.console_manager_enabled = false;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  EXPECT_EQ(platform.console(), nullptr);
  // Guests still build fine; they simply have no virtual console.
  EXPECT_TRUE(platform.CreateGuest(GuestSpec{}).ok());
}

// --- Live migration ---

TEST(MigrationTest, ConvergentPrecopyHasShortDowntime) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "mover"});

  MigrationParams params;
  params.dirty_rate_bytes_per_sec = 20e6;  // well below the GbE stream
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_GT(result->precopy_rounds, 1);
  // Downtime: residue under 1 MiB plus the 30 ms switchover.
  EXPECT_LT(result->downtime, FromMilliseconds(60));
  // Source gone, destination running.
  EXPECT_EQ(source.guest_spec(guest), nullptr);
  const Domain* dest = destination.hv().domain(result->destination_guest);
  ASSERT_NE(dest, nullptr);
  EXPECT_EQ(dest->state(), DomainState::kRunning);
  EXPECT_EQ(dest->name(), "mover");
}

TEST(MigrationTest, HotGuestFallsBackToStopAndCopy) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "hot"});

  MigrationParams params;
  params.dirty_rate_bytes_per_sec = 500e6;  // dirties faster than the link
  params.max_precopy_rounds = 5;
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->precopy_rounds, 5);
  // Stop-and-copy of a large residue: downtime in the seconds range.
  EXPECT_GT(result->downtime, FromMilliseconds(500));
}

TEST(MigrationTest, HigherDirtyRateNeverShortensDowntime) {
  double previous = -1;
  for (double dirty_mb : {10.0, 40.0, 80.0, 100.0}) {
    XoarPlatform source, destination;
    ASSERT_TRUE(source.Boot().ok());
    ASSERT_TRUE(destination.Boot().ok());
    DomainId guest = *source.CreateGuest(GuestSpec{});
    MigrationParams params;
    params.dirty_rate_bytes_per_sec = dirty_mb * 1e6;
    auto result = LiveMigrate(&source, guest, &destination, params);
    ASSERT_TRUE(result.ok());
    const double downtime = static_cast<double>(result->downtime);
    EXPECT_GE(downtime, previous);
    previous = downtime;
  }
}

TEST(MigrationTest, DestinationRejectionLeavesSourceIntact) {
  XoarPlatform source;
  ASSERT_TRUE(source.Boot().ok());
  DomainId guest =
      *source.CreateGuest(GuestSpec{.name = "stay", .memory_mb = 1536});

  // A destination with a tiny machine cannot host the 1.5 GiB guest: its
  // shards alone take ~896 MB of the 2 GiB.
  XoarPlatform::Config small;
  small.machine_memory_gb = 2;
  XoarPlatform destination(small);
  ASSERT_TRUE(destination.Boot().ok());

  auto result = LiveMigrate(&source, guest, &destination, MigrationParams{});
  EXPECT_FALSE(result.ok());
  // The source guest is still there and running.
  const Domain* dom = source.hv().domain(guest);
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->state(), DomainState::kRunning);
  EXPECT_NE(source.guest_spec(guest), nullptr);
}

TEST(MigrationTest, CrossPlatformDom0ToXoar) {
  // Migration works across platform flavours — the legacy-compatibility
  // story (§1: "without any modifications to existing infrastructure").
  MonolithicPlatform source;
  XoarPlatform destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "lift-and-shift"});
  auto result = LiveMigrate(&source, guest, &destination, MigrationParams{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(destination.hv().domain(result->destination_guest)->name(),
            "lift-and-shift");
}

TEST(MigrationTest, PausedGuestCannotLiveMigrate) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{});
  ASSERT_TRUE(source.toolstack().PauseGuest(guest).ok());
  EXPECT_EQ(
      LiveMigrate(&source, guest, &destination, MigrationParams{}).status().code(),
      StatusCode::kFailedPrecondition);
}

// --- Live migration abort paths (destination rollback) ---

TEST(MigrationTest, StreamFailureTearsDownDestination) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "dropper"});

  const std::size_t live_before = destination.hv().LiveDomainCount();
  const std::uint64_t free_before = destination.hv().memory().free_pages();
  MigrationParams params;
  int faults_consulted = 0;
  params.stream_fault = [&](int round) {
    ++faults_consulted;
    return round >= 3;  // break the stream mid-pre-copy
  };
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(faults_consulted, 3);
  // No half-built domain (and no leaked memory) on the destination.
  EXPECT_EQ(destination.hv().LiveDomainCount(), live_before);
  EXPECT_EQ(destination.hv().memory().free_pages(), free_before);
  // The source guest survived, still running.
  const Domain* dom = source.hv().domain(guest);
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->state(), DomainState::kRunning);
}

TEST(MigrationTest, NonConvergentStopCopyAbortsUnderDowntimeBound) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "hot"});

  const std::size_t live_before = destination.hv().LiveDomainCount();
  MigrationParams params;
  params.dirty_rate_bytes_per_sec = 500e6;  // never converges
  params.max_precopy_rounds = 5;
  params.max_downtime = FromMilliseconds(100);  // residue would take seconds
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(destination.hv().LiveDomainCount(), live_before);
  EXPECT_EQ(source.hv().domain(guest)->state(), DomainState::kRunning);
}

TEST(MigrationTest, DeadlineAbortsAndRollsBack) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{});

  const std::size_t live_before = destination.hv().LiveDomainCount();
  MigrationParams params;
  params.deadline = FromMilliseconds(100);  // 1 GiB over GbE needs ~10 s
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(destination.hv().LiveDomainCount(), live_before);
  EXPECT_EQ(source.hv().domain(guest)->state(), DomainState::kRunning);
}

TEST(MigrationTest, ZeroDirtyRateConvergesInOneRound) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "idle"});

  MigrationParams params;
  params.dirty_rate_bytes_per_sec = 0;  // idle guest: nothing re-dirtied
  auto result = LiveMigrate(&source, guest, &destination, params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->precopy_rounds, 1);
  // Empty residue: downtime is the bare switchover cost.
  EXPECT_EQ(result->downtime, FromMilliseconds(30));
  EXPECT_EQ(destination.hv().domain(result->destination_guest)->state(),
            DomainState::kRunning);
}

TEST(MigrationTest, GuestPausedMidPrecopyAbortsAndRollsBack) {
  XoarPlatform source, destination;
  ASSERT_TRUE(source.Boot().ok());
  ASSERT_TRUE(destination.Boot().ok());
  DomainId guest = *source.CreateGuest(GuestSpec{.name = "interrupted"});

  const std::size_t live_before = destination.hv().LiveDomainCount();
  // Pre-copy of a 1 GiB guest over GbE runs ~10 s per early round; pause
  // the guest one second in, mid-round.
  source.sim().ScheduleAfter(FromSeconds(1.0), [&] {
    ASSERT_TRUE(source.toolstack().PauseGuest(guest).ok());
  });
  auto result = LiveMigrate(&source, guest, &destination, MigrationParams{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // Destination rolled back; the source guest still exists, paused — the
  // migration must not destroy a guest it failed to move.
  EXPECT_EQ(destination.hv().LiveDomainCount(), live_before);
  const Domain* dom = source.hv().domain(guest);
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->state(), DomainState::kPaused);
  EXPECT_NE(source.guest_spec(guest), nullptr);
}

}  // namespace
}  // namespace xoar
