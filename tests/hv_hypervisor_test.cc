#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {
namespace {

// Fixture in stock-Xen mode (control domain, no shard-sharing policy).
class StockHvTest : public ::testing::Test {
 protected:
  StockHvTest() {
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = false;
    options.total_memory_bytes = 1 * kGiB;
    hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
    DomainConfig dom0_config;
    dom0_config.name = "Domain-0";
    dom0_config.memory_mb = 128;
    dom0_ = *hv_->CreateInitialDomain(dom0_config, /*as_control_domain=*/true);
  }

  DomainId NewGuest(const std::string& name, std::uint64_t mb = 64) {
    DomainConfig config;
    config.name = name;
    config.memory_mb = mb;
    DomainId id = *hv_->CreateDomain(dom0_, config);
    EXPECT_TRUE(hv_->FinishBuild(dom0_, id).ok());
    EXPECT_TRUE(hv_->UnpauseDomain(dom0_, id).ok());
    return id;
  }

  Simulator sim_;
  Obs obs_;
  std::unique_ptr<Hypervisor> hv_;
  DomainId dom0_;
};

// Fixture in Xoar mode (shard sharing policy enforced, no control domain).
class XoarHvTest : public ::testing::Test {
 protected:
  XoarHvTest() {
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    options.control_domain_crash_reboots_host = false;
    options.total_memory_bytes = 1 * kGiB;
    hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
    DomainConfig boot;
    boot.name = "Bootstrapper";
    boot.memory_mb = 32;
    boot.is_shard = true;
    boot_ = *hv_->CreateInitialDomain(boot, /*as_control_domain=*/false);
    hv_->domain(boot_)->hypercall_policy().PermitAll();
  }

  DomainId NewDomain(const std::string& name, bool shard,
                     DomainId on_behalf_of = DomainId::Invalid()) {
    DomainConfig config;
    config.name = name;
    config.memory_mb = 32;
    config.is_shard = shard;
    DomainId id = *hv_->CreateDomain(boot_, config, on_behalf_of);
    EXPECT_TRUE(hv_->FinishBuild(boot_, id).ok());
    EXPECT_TRUE(hv_->UnpauseDomain(boot_, id).ok());
    return id;
  }

  Simulator sim_;
  Obs obs_;
  std::unique_ptr<Hypervisor> hv_;
  DomainId boot_;
};

// --- Lifecycle ---

TEST_F(StockHvTest, InitialDomainIsRunningControlDomain) {
  const Domain* dom0 = hv_->domain(dom0_);
  ASSERT_NE(dom0, nullptr);
  EXPECT_TRUE(dom0->is_control_domain());
  EXPECT_EQ(dom0->state(), DomainState::kRunning);
  EXPECT_GT(dom0->page_count(), 0u);
}

TEST_F(StockHvTest, SecondInitialDomainRejected) {
  DomainConfig config;
  config.name = "again";
  EXPECT_EQ(hv_->CreateInitialDomain(config, true).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StockHvTest, GuestLifecycle) {
  DomainId guest = NewGuest("g1");
  EXPECT_EQ(hv_->domain(guest)->state(), DomainState::kRunning);
  EXPECT_TRUE(hv_->PauseDomain(dom0_, guest).ok());
  EXPECT_EQ(hv_->domain(guest)->state(), DomainState::kPaused);
  EXPECT_TRUE(hv_->UnpauseDomain(dom0_, guest).ok());
  EXPECT_TRUE(hv_->DestroyDomain(dom0_, guest).ok());
  EXPECT_EQ(hv_->domain(guest)->state(), DomainState::kDead);
  EXPECT_EQ(hv_->memory().PagesOwnedBy(guest), 0u);
}

// The domain table is indexed by id: ids nobody created (including the
// gap a failed create leaves) resolve to nullptr without growing the table,
// dead domains stay resolvable, and AllDomains walks ids in order.
TEST_F(StockHvTest, DomainLookupByIdNeverAllocates) {
  const Hypervisor& const_hv = *hv_;
  EXPECT_EQ(hv_->domain(DomainId::Invalid()), nullptr);
  EXPECT_EQ(hv_->domain(DomainId(1u << 31)), nullptr);
  EXPECT_EQ(const_hv.domain(DomainId::Invalid()), nullptr);
  EXPECT_EQ(const_hv.domain(DomainId(1u << 31)), nullptr);

  const DomainId first = NewGuest("first");
  DomainConfig too_big;
  too_big.name = "too-big";
  too_big.memory_mb = 4096;  // more than the 1 GiB host has
  EXPECT_FALSE(hv_->CreateDomain(dom0_, too_big).ok());
  const DomainId gap(first.value() + 1);
  const DomainId last = NewGuest("last");
  EXPECT_EQ(last.value(), gap.value() + 1);
  EXPECT_EQ(hv_->domain(gap), nullptr);
  EXPECT_EQ(hv_->DestroyDomain(dom0_, gap).code(), StatusCode::kNotFound);

  ASSERT_TRUE(hv_->DestroyDomain(dom0_, first).ok());
  ASSERT_NE(hv_->domain(first), nullptr);
  EXPECT_EQ(hv_->domain(first)->state(), DomainState::kDead);
  EXPECT_EQ(hv_->AllDomains(), (std::vector<DomainId>{dom0_, last}));
  EXPECT_EQ(hv_->LiveDomainCount(), 2u);

  EvtchnPort port = *hv_->EvtchnAllocUnbound(last, dom0_);
  EXPECT_EQ(hv_->EvtchnSend(last, EvtchnPort(1u << 30)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(hv_->EvtchnBindInterdomain(dom0_, last, EvtchnPort(4294967294u))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(hv_->EvtchnBindInterdomain(dom0_, last, port).ok());
}

TEST_F(StockHvTest, DomainMemorySizedFromConfig) {
  DomainId guest = NewGuest("g1", 64);
  EXPECT_EQ(hv_->domain(guest)->memory_bytes(), 64 * kMiB);
}

TEST_F(StockHvTest, ZeroMemoryDomainRejected) {
  DomainConfig config;
  config.name = "empty";
  config.memory_mb = 0;
  EXPECT_EQ(hv_->CreateDomain(dom0_, config).status().code(),
            StatusCode::kInvalidArgument);
}

// Xen's XEN_DOMCTL_max_vcpus refuses zero: a domain without a vcpu is
// refused before it takes an id or a page, on both create paths.
TEST_F(StockHvTest, DomainWithoutVcpusRejected) {
  for (int vcpus : {0, -3}) {
    DomainConfig config;
    config.name = "no-vcpus";
    config.vcpus = vcpus;
    EXPECT_EQ(hv_->CreateDomain(dom0_, config).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(hv_->LiveDomainCount(), 1u);
  EXPECT_EQ(hv_->memory().PagesOwnedBy(DomainId(dom0_.value() + 1)), 0u);
  EXPECT_EQ(NewGuest("next").value(), dom0_.value() + 1);

  Obs obs;
  Hypervisor fresh(&sim_, Hypervisor::Options(), &obs);
  DomainConfig initial;
  initial.name = "initial";
  initial.vcpus = 0;
  EXPECT_EQ(fresh.CreateInitialDomain(initial, true).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.LiveDomainCount(), 0u);
}

TEST_F(StockHvTest, DoubleDestroyFails) {
  DomainId guest = NewGuest("g1");
  EXPECT_TRUE(hv_->DestroyDomain(dom0_, guest).ok());
  EXPECT_EQ(hv_->DestroyDomain(dom0_, guest).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StockHvTest, GuestCannotCreateDomains) {
  DomainId guest = NewGuest("attacker");
  DomainConfig config;
  config.name = "evil";
  EXPECT_EQ(hv_->CreateDomain(guest, config).status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_GT(hv_->denied_hypercalls(), 0u);
}

TEST_F(StockHvTest, GuestCannotManageOtherGuests) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  EXPECT_EQ(hv_->PauseDomain(g1, g2).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(hv_->DestroyDomain(g1, g2).code(), StatusCode::kPermissionDenied);
}

TEST_F(StockHvTest, Dom0CrashRebootsHost) {
  hv_->ReportCrash(dom0_);
  EXPECT_TRUE(hv_->host_failed());
}

TEST_F(StockHvTest, GuestCrashDoesNotRebootHost) {
  DomainId guest = NewGuest("g1");
  hv_->ReportCrash(guest);
  EXPECT_FALSE(hv_->host_failed());
  EXPECT_EQ(hv_->domain(guest)->state(), DomainState::kDead);
}

TEST_F(XoarHvTest, BootstrapperCrashDoesNotRebootHost) {
  hv_->ReportCrash(boot_);
  EXPECT_FALSE(hv_->host_failed());
}

// --- Parent toolstack audit (§5.6) ---

TEST_F(XoarHvTest, ParentToolstackMayManage) {
  DomainId builder = NewDomain("builder", /*shard=*/true);
  ASSERT_TRUE(
      hv_->PermitHypercall(boot_, builder, Hypercall::kDomctlCreate).ok());
  ASSERT_TRUE(
      hv_->PermitHypercall(boot_, builder, Hypercall::kDomctlUnpause).ok());
  DomainId toolstack = NewDomain("ts", /*shard=*/true);
  for (Hypercall hc : {Hypercall::kDomctlPause, Hypercall::kDomctlUnpause,
                       Hypercall::kDomctlDestroy}) {
    ASSERT_TRUE(hv_->PermitHypercall(boot_, toolstack, hc).ok());
  }
  // Builder creates a guest on behalf of the toolstack.
  DomainConfig config;
  config.name = "guest";
  config.memory_mb = 32;
  DomainId guest = *hv_->CreateDomain(builder, config, toolstack);
  ASSERT_TRUE(hv_->FinishBuild(builder, guest).ok());
  ASSERT_TRUE(hv_->UnpauseDomain(builder, guest).ok());  // creator rights
  EXPECT_EQ(hv_->domain(guest)->parent_toolstack(), toolstack);

  EXPECT_TRUE(hv_->PauseDomain(toolstack, guest).ok());
  EXPECT_TRUE(hv_->UnpauseDomain(toolstack, guest).ok());
}

TEST_F(XoarHvTest, ForeignToolstackDenied) {
  DomainId ts1 = NewDomain("ts1", true);
  DomainId ts2 = NewDomain("ts2", true);
  for (DomainId ts : {ts1, ts2}) {
    ASSERT_TRUE(
        hv_->PermitHypercall(boot_, ts, Hypercall::kDomctlPause).ok());
  }
  DomainId guest = NewDomain("guest", false, /*on_behalf_of=*/ts1);
  // §5.6: "an attempt to manage any other guests is blocked".
  EXPECT_EQ(hv_->PauseDomain(ts2, guest).code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(hv_->PauseDomain(ts1, guest).ok());
}

TEST_F(XoarHvTest, DelegationGrantsManagement) {
  DomainId shard = NewDomain("netback", true);
  DomainId ts = NewDomain("ts", true);
  ASSERT_TRUE(hv_->PermitHypercall(boot_, ts, Hypercall::kDomctlPause).ok());
  EXPECT_EQ(hv_->PauseDomain(ts, shard).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(hv_->AllowDelegation(boot_, shard, ts).ok());
  EXPECT_TRUE(hv_->PauseDomain(ts, shard).ok());
}

TEST_F(XoarHvTest, DelegationOnlyForShards) {
  DomainId guest = NewDomain("guest", false);
  DomainId ts = NewDomain("ts", true);
  EXPECT_EQ(hv_->AllowDelegation(boot_, guest, ts).code(),
            StatusCode::kPermissionDenied);
}

// --- Fig 3.1 privilege API ---

TEST_F(XoarHvTest, PermitHypercallOnlyForShards) {
  DomainId guest = NewDomain("guest", false);
  EXPECT_EQ(
      hv_->PermitHypercall(boot_, guest, Hypercall::kDomctlCreate).code(),
      StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, WhitelistedHypercallWorksOthersDenied) {
  DomainId shard = NewDomain("builder", true);
  ASSERT_TRUE(
      hv_->PermitHypercall(boot_, shard, Hypercall::kDomctlCreate).ok());
  EXPECT_TRUE(hv_->CheckHypercall(shard, Hypercall::kDomctlCreate).ok());
  EXPECT_EQ(hv_->CheckHypercall(shard, Hypercall::kSysctlReboot).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, UnprivilegedHypercallsAlwaysAllowed) {
  DomainId guest = NewDomain("guest", false);
  EXPECT_TRUE(hv_->CheckHypercall(guest, Hypercall::kEventChannelOp).ok());
  EXPECT_TRUE(hv_->CheckHypercall(guest, Hypercall::kGrantTableOp).ok());
  EXPECT_TRUE(hv_->CheckHypercall(guest, Hypercall::kSchedOp).ok());
}

TEST_F(XoarHvTest, PciAssignmentValidatesAvailability) {
  DomainId net1 = NewDomain("netback1", true);
  DomainId net2 = NewDomain("netback2", true);
  PciSlot slot{0, 2, 0};
  EXPECT_TRUE(hv_->AssignPciDevice(boot_, net1, slot).ok());
  // §3.1: "the hypervisor checks the availability of the device".
  EXPECT_EQ(hv_->AssignPciDevice(boot_, net2, slot).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(hv_->domain(net1)->pci_devices().count(slot), 1u);
}

TEST_F(XoarHvTest, PciAssignmentToGuestAllowedForDirectDeviceAccess) {
  // §4.5.3 / §3.4.2: guests may receive direct device assignment (SR-IOV
  // virtual functions in the private-cloud scenario).
  DomainId guest = NewDomain("guest", false);
  EXPECT_TRUE(hv_->AssignPciDevice(boot_, guest, PciSlot{0, 2, 0}).ok());
  EXPECT_EQ(hv_->domain(guest)->pci_devices().size(), 1u);
}

TEST_F(XoarHvTest, PciDeviceFreedOnDestroy) {
  DomainId net1 = NewDomain("netback1", true);
  PciSlot slot{0, 2, 0};
  ASSERT_TRUE(hv_->AssignPciDevice(boot_, net1, slot).ok());
  ASSERT_TRUE(hv_->DestroyDomain(boot_, net1).ok());
  DomainId net2 = NewDomain("netback2", true);
  EXPECT_TRUE(hv_->AssignPciDevice(boot_, net2, slot).ok());
}

// --- IVC sharing policy (§5.6) ---

TEST_F(XoarHvTest, GuestToUnauthorizedShardBlocked) {
  DomainId shard = NewDomain("netback", true);
  DomainId guest = NewDomain("guest", false);
  EXPECT_EQ(hv_->CheckIvcAllowed(guest, shard).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(hv_->EvtchnAllocUnbound(guest, shard).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, AuthorizedShardUseUnblocksIvc) {
  DomainId shard = NewDomain("netback", true);
  DomainId ts = NewDomain("ts", true);
  DomainId guest = NewDomain("guest", false, /*on_behalf_of=*/ts);
  ASSERT_TRUE(hv_->AllowDelegation(boot_, shard, ts).ok());
  ASSERT_TRUE(hv_->AuthorizeShardUse(ts, guest, shard).ok());
  EXPECT_TRUE(hv_->CheckIvcAllowed(guest, shard).ok());
  EXPECT_TRUE(hv_->CheckIvcAllowed(shard, guest).ok());
}

TEST_F(XoarHvTest, ToolstackCannotAuthorizeUndelegatedShard) {
  DomainId shard = NewDomain("netback", true);
  DomainId ts = NewDomain("ts", true);
  DomainId guest = NewDomain("guest", false, ts);
  // §5.6: "an attempt to use ... an undelegated shard ... would fail."
  EXPECT_EQ(hv_->AuthorizeShardUse(ts, guest, shard).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, ToolstackCannotAuthorizeNonShardProvider) {
  DomainId ts = NewDomain("ts", true);
  DomainId guest = NewDomain("guest", false, ts);
  DomainId other = NewDomain("other-guest", false, ts);
  // §5.6: "an attempt to use a VM that is not a shard ... would fail."
  EXPECT_EQ(hv_->AuthorizeShardUse(ts, guest, other).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, GuestToGuestIvcBlocked) {
  DomainId g1 = NewDomain("g1", false);
  DomainId g2 = NewDomain("g2", false);
  EXPECT_EQ(hv_->CheckIvcAllowed(g1, g2).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, ShardToShardIvcAllowed) {
  DomainId s1 = NewDomain("s1", true);
  DomainId s2 = NewDomain("s2", true);
  EXPECT_TRUE(hv_->CheckIvcAllowed(s1, s2).ok());
}

TEST_F(StockHvTest, StockModeAllowsAnyIvc) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  EXPECT_TRUE(hv_->CheckIvcAllowed(g1, g2).ok());
}

// --- Grants & foreign mapping ---

TEST_F(StockHvTest, GrantMapRoundTrip) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  Pfn pfn = *hv_->memory().AllocatePages(g1, 1);
  GrantRef ref = *hv_->GrantAccess(g1, g2, pfn, true);
  auto page = hv_->MapGrant(g2, g1, ref);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->pfn, pfn);
  ASSERT_NE(page->data, nullptr);
  EXPECT_TRUE(hv_->UnmapGrant(g2, g1, ref).ok());
  EXPECT_TRUE(hv_->EndGrantAccess(g1, ref).ok());
}

TEST_F(StockHvTest, CannotGrantUnownedPage) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  Pfn foreign = *hv_->memory().AllocatePages(g2, 1);
  EXPECT_EQ(hv_->GrantAccess(g1, g2, foreign, true).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StockHvTest, WrongGranteeCannotMap) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  DomainId g3 = NewGuest("g3");
  Pfn pfn = *hv_->memory().AllocatePages(g1, 1);
  GrantRef ref = *hv_->GrantAccess(g1, g2, pfn, true);
  EXPECT_EQ(hv_->MapGrant(g3, g1, ref).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StockHvTest, ControlDomainForeignMapsAnyGuest) {
  DomainId guest = NewGuest("g1");
  auto page = hv_->ForeignMap(dom0_, guest, hv_->domain(guest)->first_pfn());
  EXPECT_TRUE(page.ok());
}

TEST_F(StockHvTest, GuestCannotForeignMap) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  EXPECT_EQ(
      hv_->ForeignMap(g1, g2, hv_->domain(g2)->first_pfn()).status().code(),
      StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, PrivilegedForAllowsForeignMapOfExactlyThatGuest) {
  DomainId qemu = NewDomain("qemu", true);
  DomainId guest = NewDomain("guest", false);
  DomainId other = NewDomain("other", false);
  ASSERT_TRUE(hv_->SetPrivilegedFor(boot_, qemu, guest).ok());
  EXPECT_TRUE(
      hv_->ForeignMap(qemu, guest, hv_->domain(guest)->first_pfn()).ok());
  // §6.2.1: the QemuVM "has no rights over any other VM".
  EXPECT_EQ(
      hv_->ForeignMap(qemu, other, hv_->domain(other)->first_pfn())
          .status()
          .code(),
      StatusCode::kPermissionDenied);
}

TEST_F(XoarHvTest, BuilderClassWhitelistAllowsArbitraryForeignMap) {
  DomainId builder = NewDomain("builder", true);
  ASSERT_TRUE(
      hv_->PermitHypercall(boot_, builder, Hypercall::kForeignMemoryMap).ok());
  DomainId guest = NewDomain("guest", false);
  EXPECT_TRUE(
      hv_->ForeignMap(builder, guest, hv_->domain(guest)->first_pfn()).ok());
}

TEST_F(StockHvTest, ForeignMapOfUnownedPfnDenied) {
  DomainId g1 = NewGuest("g1");
  DomainId g2 = NewGuest("g2");
  EXPECT_EQ(
      hv_->ForeignMap(dom0_, g1, hv_->domain(g2)->first_pfn()).status().code(),
      StatusCode::kPermissionDenied);
}

// --- Hardware capabilities (§5.8) ---

TEST_F(XoarHvTest, CapabilityGatedConsoleVirq) {
  DomainId console = NewDomain("console", true);
  DomainId other = NewDomain("other", true);
  EXPECT_EQ(hv_->BindVirq(other, Virq::kConsole).status().code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(
      hv_->GrantHwCapability(boot_, console, HwCapability::kSerialConsole)
          .ok());
  EXPECT_TRUE(hv_->BindVirq(console, Virq::kConsole).ok());
  EXPECT_EQ(hv_->HwCapabilityHolder(HwCapability::kSerialConsole), console);
}

TEST_F(XoarHvTest, CapabilityIsExclusiveWhileHolderLives) {
  DomainId a = NewDomain("a", true);
  DomainId b = NewDomain("b", true);
  ASSERT_TRUE(
      hv_->GrantHwCapability(boot_, a, HwCapability::kPciBusControl).ok());
  EXPECT_EQ(
      hv_->GrantHwCapability(boot_, b, HwCapability::kPciBusControl).code(),
      StatusCode::kAlreadyExists);
  // After the holder dies (PCIBack self-destruct), it can move.
  ASSERT_TRUE(hv_->DestroyDomain(boot_, a).ok());
  EXPECT_TRUE(
      hv_->GrantHwCapability(boot_, b, HwCapability::kPciBusControl).ok());
}

// --- Microreboot transitions ---

TEST_F(XoarHvTest, RebootCycleBreaksChannelsAndRestores) {
  DomainId shard = NewDomain("netback", true);
  DomainId ts = NewDomain("ts", true);
  DomainId guest = NewDomain("guest", false, ts);
  ASSERT_TRUE(hv_->AllowDelegation(boot_, shard, ts).ok());
  ASSERT_TRUE(hv_->AuthorizeShardUse(ts, guest, shard).ok());
  EvtchnPort unbound = *hv_->EvtchnAllocUnbound(guest, shard);
  EvtchnPort bound = *hv_->EvtchnBindInterdomain(shard, guest, unbound);
  (void)bound;

  ASSERT_TRUE(hv_->BeginReboot(boot_, shard).ok());
  EXPECT_EQ(hv_->domain(shard)->state(), DomainState::kRebooting);
  EXPECT_EQ(hv_->EvtchnSend(guest, unbound).code(),
            StatusCode::kUnavailable);
  // Cannot double-begin.
  EXPECT_EQ(hv_->BeginReboot(boot_, shard).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(hv_->CompleteReboot(boot_, shard).ok());
  EXPECT_EQ(hv_->domain(shard)->state(), DomainState::kRunning);
  EXPECT_EQ(hv_->domain(shard)->reboot_count(), 1);
}

TEST_F(XoarHvTest, CompleteWithoutBeginFails) {
  DomainId shard = NewDomain("netback", true);
  EXPECT_EQ(hv_->CompleteReboot(boot_, shard).code(),
            StatusCode::kFailedPrecondition);
}

// --- Statistics / audit hook ---

TEST_F(StockHvTest, HypercallsAreCounted) {
  const std::uint64_t before = hv_->TotalHypercalls();
  NewGuest("g1");
  EXPECT_GT(hv_->TotalHypercalls(), before);
  EXPECT_GT(hv_->HypercallCount(Hypercall::kDomctlCreate), 0u);
}

TEST_F(XoarHvTest, AuditHookSeesPrivilegeChanges) {
  std::vector<std::string> events;
  hv_->set_audit_hook([&](const std::string& e) { events.push_back(e); });
  DomainId shard = NewDomain("s", true);
  ASSERT_TRUE(
      hv_->PermitHypercall(boot_, shard, Hypercall::kDomctlCreate).ok());
  bool saw_permit = false;
  for (const auto& event : events) {
    if (event.find("permit-hypercall") != std::string::npos) {
      saw_permit = true;
    }
  }
  EXPECT_TRUE(saw_permit);
}

}  // namespace
}  // namespace xoar
