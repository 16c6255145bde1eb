// End-to-end scenarios spanning the whole stack: boot, multi-tenant guests,
// I/O under microreboots, isolation, and forensics.
#include <gtest/gtest.h>

#include "src/core/xoar_platform.h"
#include "src/ctl/monolithic_platform.h"
#include "src/security/containment.h"
#include "src/workloads/wget.h"

namespace xoar {
namespace {

TEST(IntegrationTest, FullLifecycleOnBothPlatforms) {
  MonolithicPlatform dom0;
  XoarPlatform xoar;
  for (Platform* platform :
       std::initializer_list<Platform*>{&dom0, &xoar}) {
    ASSERT_TRUE(platform->Boot().ok()) << platform->name();
    DomainId g1 = *platform->CreateGuest(GuestSpec{.name = "g1"});
    DomainId g2 = *platform->CreateGuest(GuestSpec{.name = "g2"});
    EXPECT_TRUE(platform->netfront(g1)->connected());
    EXPECT_TRUE(platform->blkfront(g2)->connected());
    EXPECT_TRUE(platform->DestroyGuest(g1).ok());
    EXPECT_TRUE(platform->DestroyGuest(g2).ok());
  }
}

TEST(IntegrationTest, CrossGuestMemoryIsolation) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId g1 = *platform.CreateGuest(GuestSpec{.name = "g1"});
  DomainId g2 = *platform.CreateGuest(GuestSpec{.name = "g2"});
  // Neither guest can map the other's memory, in any direction.
  const Pfn target = platform.hv().domain(g2)->first_pfn();
  EXPECT_EQ(platform.hv().ForeignMap(g1, g2, target).status().code(),
            StatusCode::kPermissionDenied);
  // Nor can they establish IVC directly.
  EXPECT_EQ(platform.hv().EvtchnAllocUnbound(g1, g2).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(IntegrationTest, ConcurrentGuestIoOnSharedBackends) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId g1 = *platform.CreateGuest(GuestSpec{.name = "g1"});
  DomainId g2 = *platform.CreateGuest(GuestSpec{.name = "g2"});
  int done = 0;
  for (DomainId guest : {g1, g2}) {
    BlkFront* blk = platform.blkfront(guest);
    for (int i = 0; i < 8; ++i) {
      blk->WriteBytes(static_cast<std::uint64_t>(i) * kMiB, 128 * kKiB,
                      [&](Status s) {
                        ASSERT_TRUE(s.ok());
                        ++done;
                      });
    }
  }
  platform.Settle(2 * kSecond);
  EXPECT_EQ(done, 16);
}

TEST(IntegrationTest, TransferSurvivesRestartStorm) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId guest = *platform.CreateGuest(GuestSpec{});
  ASSERT_TRUE(platform.EnableNetBackRestarts(FromSeconds(2), true).ok());
  auto result =
      RunWget(&platform, guest, 512 * 1000 * 1000, WgetSink::kDevNull);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bytes, 512u * 1000 * 1000);  // no bytes lost, just time
  EXPECT_GT(result->tcp_timeouts, 0u);
  ASSERT_TRUE(platform.DisableNetBackRestarts().ok());
}

TEST(IntegrationTest, CompromiseForensicsViaAuditLog) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  DomainId attacker = *platform.CreateGuest(GuestSpec{.name = "attacker"});
  DomainId bystander = *platform.CreateGuest(GuestSpec{.name = "bystander"});
  (void)attacker;

  // A NetBack compromise is detected; who was exposed? (§3.2.2)
  const SimTime detection = platform.sim().Now();
  AuditEvent marker;
  marker.time = detection;
  marker.kind = AuditEventKind::kCompromise;
  marker.object = platform.shard_domain(ShardClass::kNetBack);
  marker.detail = "netback compromise detected";
  platform.audit().Record(std::move(marker));

  auto exposed = platform.audit().GuestsExposedToShard(
      platform.shard_domain(ShardClass::kNetBack), 0, detection);
  EXPECT_EQ(exposed.size(), 2u);
  EXPECT_TRUE(std::count(exposed.begin(), exposed.end(), bystander) > 0);
  EXPECT_EQ(platform.audit().FirstCorruptedRecord(), -1);
}

TEST(IntegrationTest, PrivateCloudScenario) {
  // §3.4.2: two tenants, each with a delegated toolstack and quota.
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  auto tenant_b_index = platform.AddToolstack(/*memory_quota_mb=*/2048);
  ASSERT_TRUE(tenant_b_index.ok());
  platform.Settle();
  Toolstack& tenant_a = platform.toolstack(0);
  Toolstack& tenant_b = platform.toolstack(*tenant_b_index);

  auto a_guest = tenant_a.CreateGuest(GuestSpec{.name = "a-web"});
  auto b_guest = tenant_b.CreateGuest(
      GuestSpec{.name = "b-db", .memory_mb = 1024});
  ASSERT_TRUE(a_guest.ok());
  ASSERT_TRUE(b_guest.ok());
  platform.Settle();

  // Quota: tenant B cannot exceed its 2 GiB allotment.
  EXPECT_EQ(
      tenant_b.CreateGuest(GuestSpec{.name = "b-big", .memory_mb = 2048})
          .status()
          .code(),
      StatusCode::kResourceExhausted);
  // Cross-tenant management is blocked by the hypervisor.
  EXPECT_EQ(platform.hv().PauseDomain(tenant_a.self(), *b_guest).code(),
            StatusCode::kPermissionDenied);
}

TEST(IntegrationTest, PublicCloudContainmentSweep) {
  // §3.4.1 + §6.2.1 in one scenario: a dense host, one hostile guest, the
  // full guest-originated CVE registry replayed. The host is the paper's
  // evaluated 4 GB machine (the platform default, as in
  // examples/public_cloud.cpp); dense packing means small guests, so each
  // gets 512 MB rather than the 1 GB benchmark guest, four of which (plus
  // the attacker's QEMU stub) do not fit beside the shards.
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  StatusOr<DomainId> attacker = platform.CreateGuest(
      GuestSpec{.name = "attacker", .memory_mb = 512, .hvm = true});
  ASSERT_TRUE(attacker.ok()) << attacker.status();
  std::vector<DomainId> victims;
  for (int i = 0; i < 3; ++i) {
    StatusOr<DomainId> victim = platform.CreateGuest(
        GuestSpec{.name = StrFormat("victim-%d", i), .memory_mb = 512});
    ASSERT_TRUE(victim.ok()) << "victim-" << i << ": " << victim.status();
    victims.push_back(*victim);
  }
  CompromiseAnalyzer analyzer(&platform, true);
  for (const auto& result : analyzer.AnalyzeAll(*attacker)) {
    if (result.vector == AttackVector::kHypervisor) {
      continue;  // uncontained on both platforms, by the paper's admission
    }
    EXPECT_FALSE(result.platform_compromised)
        << result.vulnerability_id << ": " << result.Summary();
    for (DomainId victim : victims) {
      EXPECT_EQ(result.memory_access.count(victim), 0u)
          << result.vulnerability_id;
    }
  }
}

TEST(IntegrationTest, HostSurvivesControlComponentCrashInXoarOnly) {
  // Stock: a Dom0 crash takes the host down. Xoar: a NetBack crash is a
  // component failure.
  MonolithicPlatform dom0;
  ASSERT_TRUE(dom0.Boot().ok());
  dom0.hv().ReportCrash(dom0.dom0());
  EXPECT_TRUE(dom0.hv().host_failed());

  XoarPlatform xoar;
  ASSERT_TRUE(xoar.Boot().ok());
  xoar.hv().ReportCrash(xoar.shard_domain(ShardClass::kNetBack));
  EXPECT_FALSE(xoar.hv().host_failed());
}

TEST(IntegrationTest, XenStorePerRequestRestartsUnderRealTraffic) {
  XoarPlatform platform;  // per-request policy on by default
  ASSERT_TRUE(platform.Boot().ok());
  const std::uint64_t restarts_before = platform.xenstore().logic_restarts();
  (void)*platform.CreateGuest(GuestSpec{});
  // Guest creation funnels dozens of requests through XenStore-Logic, each
  // one triggering a rollback (Fig 5.1).
  EXPECT_GT(platform.xenstore().logic_restarts(), restarts_before + 10);
}

}  // namespace
}  // namespace xoar
