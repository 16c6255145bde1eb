#include <tuple>

#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"
#include "src/xs/wire.h"

namespace xoar {
namespace {

class XsServiceTest : public ::testing::Test {
 protected:
  // Builds a Xoar-mode hypervisor with XenStore split into two shards and
  // one guest authorized to use the logic shard.
  void SetUpSplit() {
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    options.total_memory_bytes = 1 * kGiB;
    hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
    xs_ = std::make_unique<XenStoreService>(hv_.get(), &sim_, &obs_);
    DomainConfig boot;
    boot.name = "boot";
    boot.memory_mb = 32;
    boot.is_shard = true;
    boot_ = *hv_->CreateInitialDomain(boot, false);
    hv_->domain(boot_)->hypercall_policy().PermitAll();
    logic_ = NewDomain("xs-logic", true);
    state_ = NewDomain("xs-state", true);
    guest_ = NewDomain("guest", false);
    xs_->DeploySplit(logic_, {state_});
    EXPECT_TRUE(hv_->AllowDelegation(boot_, logic_, boot_).ok());
    EXPECT_TRUE(hv_->AuthorizeShardUse(boot_, guest_, logic_).ok());
  }

  // Cloud-density deployment (SCALING.md): XenStore-State partitioned into
  // two shards, each in its own shard domain, plus two guests whose home
  // shards differ.
  void SetUpSharded() {
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    options.total_memory_bytes = 1 * kGiB;
    hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
    xs_ = std::make_unique<XenStoreService>(hv_.get(), &sim_, &obs_);
    DomainConfig boot;
    boot.name = "boot";
    boot.memory_mb = 32;
    boot.is_shard = true;
    boot_ = *hv_->CreateInitialDomain(boot, false);
    hv_->domain(boot_)->hypercall_policy().PermitAll();
    logic_ = NewDomain("xs-logic", true);
    state_ = NewDomain("xs-state", true);
    state_b_ = NewDomain("xs-state-1", true);
    xs_->SetShardCount(2);
    xs_->DeploySplit(logic_, {state_, state_b_});
    EXPECT_TRUE(hv_->AllowDelegation(boot_, logic_, boot_).ok());
    guest_ = NewDomain("guest-a", false);
    guest_b_ = NewDomain("guest-b", false);
    EXPECT_TRUE(hv_->AuthorizeShardUse(boot_, guest_, logic_).ok());
    EXPECT_TRUE(hv_->AuthorizeShardUse(boot_, guest_b_, logic_).ok());
    ASSERT_NE(xs_->store().ShardIndexForDomain(guest_),
              xs_->store().ShardIndexForDomain(guest_b_));
    ASSERT_TRUE(xs_->Connect(guest_).ok());
    ASSERT_TRUE(xs_->Connect(guest_b_).ok());
    MakeTenantDir(guest_);
    MakeTenantDir(guest_b_);
  }

  // Creates /local/domain/<id> owned by the guest; the path routes to the
  // guest's home shard by construction.
  void MakeTenantDir(DomainId guest) {
    const std::string dir = TenantDir(guest);
    ASSERT_TRUE(xs_->store().Mkdir(logic_, dir).ok());
    XsNodePerms perms;
    perms.owner = guest;
    ASSERT_TRUE(xs_->store().SetPerms(logic_, dir, perms).ok());
  }

  static std::string TenantDir(DomainId guest) {
    return "/local/domain/" + std::to_string(guest.value());
  }

  void SetUpMonolithic() {
    Hypervisor::Options options;
    options.enforce_shard_sharing_policy = false;
    options.total_memory_bytes = 1 * kGiB;
    hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
    xs_ = std::make_unique<XenStoreService>(hv_.get(), &sim_, &obs_);
    DomainConfig dom0;
    dom0.name = "dom0";
    dom0.memory_mb = 128;
    boot_ = *hv_->CreateInitialDomain(dom0, true);
    logic_ = boot_;
    guest_ = NewDomain("guest", false);
    xs_->DeployMonolithic(boot_);
  }

  DomainId NewDomain(const std::string& name, bool shard) {
    DomainConfig config;
    config.name = name;
    config.memory_mb = 32;
    config.is_shard = shard;
    DomainId id = *hv_->CreateDomain(boot_, config);
    EXPECT_TRUE(hv_->FinishBuild(boot_, id).ok());
    EXPECT_TRUE(hv_->UnpauseDomain(boot_, id).ok());
    return id;
  }

  Simulator sim_;
  Obs obs_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<XenStoreService> xs_;
  DomainId boot_, logic_, state_, state_b_, guest_, guest_b_;
};

TEST_F(XsServiceTest, SplitConnectUsesGrantTables) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  EXPECT_TRUE(xs_->IsConnected(guest_));
  // The guest exported a grant; the deprivileged logic shard mapped it.
  EXPECT_EQ(hv_->domain(guest_)->grant_table().ActiveEntries(), 1u);
}

TEST_F(XsServiceTest, MonolithicConnectUsesForeignMap) {
  SetUpMonolithic();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  EXPECT_TRUE(xs_->IsConnected(guest_));
  // No grant entry: xenstored relied on Dom0 privilege (§4.4).
  EXPECT_EQ(hv_->domain(guest_)->grant_table().ActiveEntries(), 0u);
}

TEST_F(XsServiceTest, UnauthorizedGuestCannotConnectInSplitMode) {
  SetUpSplit();
  DomainId stranger = NewDomain("stranger", false);
  EXPECT_EQ(xs_->Connect(stranger).code(), StatusCode::kPermissionDenied);
}

TEST_F(XsServiceTest, RequestsRequireConnection) {
  SetUpSplit();
  EXPECT_EQ(xs_->Write(guest_, "/x", "1").code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  // Access control still applies: the guest does not own /x's parent.
  EXPECT_EQ(xs_->Write(guest_, "/x", "1").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XsServiceTest, DoubleConnectRejected) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  EXPECT_EQ(xs_->Connect(guest_).code(), StatusCode::kAlreadyExists);
}

// Connections are indexed by domain id. Ids nobody connected, however far
// past the table, are a bounds-checked miss: refused, never a resize (a
// table grown to 2^31 rows would not fit in memory), and a Connect the
// hypervisor refuses adds nothing. A slot Disconnect freed takes a new
// Connect.
TEST_F(XsServiceTest, UnknownCallerIdsAreRefusedWithoutGrowingTheTable) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  for (DomainId stranger : {DomainId(1u << 31), DomainId(4294967294u)}) {
    EXPECT_FALSE(xs_->IsConnected(stranger)) << stranger;
    EXPECT_EQ(xs_->Read(stranger, "/").status().code(),
              StatusCode::kFailedPrecondition)
        << stranger;
    EXPECT_EQ(xs_->Write(stranger, "/x", "1").code(),
              StatusCode::kFailedPrecondition)
        << stranger;
    EXPECT_EQ(xs_->TransactionStart(stranger).status().code(),
              StatusCode::kFailedPrecondition)
        << stranger;
    EXPECT_FALSE(xs_->Connect(stranger).ok()) << stranger;
    EXPECT_FALSE(xs_->IsConnected(stranger)) << stranger;
    xs_->Disconnect(stranger);
  }

  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  ASSERT_TRUE(xs_->Write(guest_, "/g/k", "v").ok());
  xs_->Disconnect(guest_);
  EXPECT_FALSE(xs_->IsConnected(guest_));
  EXPECT_EQ(xs_->Read(guest_, "/g/k").status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  EXPECT_TRUE(xs_->IsConnected(guest_));
  EXPECT_EQ(*xs_->Read(guest_, "/g/k"), "v");
}

// Disconnect releases what Connect allocated: the ring page, the client's
// grant and XenStore-Logic's mapping of it, and both ends of the event
// channel. Repeated cycles on a live domain leave its tables as they were.
TEST_F(XsServiceTest, DisconnectReleasesWhatConnectAllocated) {
  SetUpSplit();
  // Ports are numbered from 0 per domain and never reused.
  auto connected_ports = [&](DomainId domain) {
    int connected = 0;
    for (std::uint32_t port = 0; port < 64; ++port) {
      connected += hv_->evtchn().IsConnected(domain, EvtchnPort(port));
    }
    return connected;
  };
  const GrantTable& grants = hv_->domain(guest_)->grant_table();
  const std::size_t grants_before = grants.ActiveEntries();
  const std::uint64_t pages_before = hv_->memory().PagesOwnedBy(guest_);
  const int guest_ports_before = connected_ports(guest_);
  const int logic_ports_before = connected_ports(logic_);
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(xs_->Connect(guest_).ok()) << cycle;
    ASSERT_EQ(grants.ActiveEntries(), grants_before + 1) << cycle;
    ASSERT_EQ(connected_ports(guest_), guest_ports_before + 1) << cycle;
    xs_->Disconnect(guest_);
    EXPECT_FALSE(xs_->IsConnected(guest_)) << cycle;
    EXPECT_EQ(grants.ActiveEntries(), grants_before) << cycle;
    EXPECT_EQ(hv_->memory().PagesOwnedBy(guest_), pages_before) << cycle;
    EXPECT_EQ(connected_ports(guest_), guest_ports_before) << cycle;
    EXPECT_EQ(connected_ports(logic_), logic_ports_before) << cycle;
  }
}

// A departing client's watches and open transactions go with its
// connection, as in xenstored: nothing fires for it any more, and its
// transaction no longer exists to pin the store's mutation log.
TEST_F(XsServiceTest, DisconnectDropsTheClientsWatchesAndTransactions) {
  SetUpSharded();
  const std::size_t watches_before = xs_->store().WatchCount();
  int fired = 0;
  const auto count = [&fired](const XsWatchEvent&) { ++fired; };
  ASSERT_TRUE(xs_->Watch(guest_, TenantDir(guest_), "own", count).ok());
  ASSERT_TRUE(xs_->Watch(guest_, "/local/domain", "all", count).ok());
  ASSERT_TRUE(xs_->Watch(guest_b_, TenantDir(guest_b_), "b", count).ok());
  ASSERT_TRUE(xs_->Unwatch(guest_b_, TenantDir(guest_b_), "b").ok());
  StatusOr<XsStore::TxId> tx = xs_->TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(xs_->WriteTx(guest_, TenantDir(guest_) + "/pending", "1", *tx)
                  .ok());
  sim_.RunFor(kMillisecond);  // the registration fires
  fired = 0;

  xs_->Disconnect(guest_);
  EXPECT_EQ(xs_->store().WatchCount(), watches_before);
  EXPECT_EQ(xs_->store().TransactionEnd(guest_, *tx, false).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(xs_->Write(guest_b_, TenantDir(guest_b_) + "/x", "1").ok());
  sim_.RunFor(kMillisecond);
  EXPECT_EQ(fired, 0);
}

// A refused Connect releases what it took before the refusal. A guest the
// IVC policy refuses has its ring page allocated before the grant to
// XenStore-Logic is denied; a ring map that fails comes after the grant.
// Either way the guest's tables end as they started.
TEST_F(XsServiceTest, RefusedConnectReleasesWhatItTook) {
  SetUpSplit();
  const DomainId stranger = NewDomain("stranger", false);  // not authorized
  auto connected_ports = [&](DomainId domain) {
    int connected = 0;
    for (std::uint32_t port = 0; port < 64; ++port) {
      connected += hv_->evtchn().IsConnected(domain, EvtchnPort(port));
    }
    return connected;
  };
  // Owned pages, active grants and connected ports.
  auto held = [&](DomainId domain) {
    return std::make_tuple(
        hv_->memory().PagesOwnedBy(domain),
        hv_->domain(domain)->grant_table().ActiveEntries(),
        connected_ports(domain));
  };
  const auto stranger_before = held(stranger);
  const int logic_ports_before = connected_ports(logic_);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(xs_->Connect(stranger).code(), StatusCode::kPermissionDenied)
        << attempt;
    EXPECT_FALSE(xs_->IsConnected(stranger)) << attempt;
    EXPECT_EQ(held(stranger), stranger_before) << attempt;
  }

  hv_->set_grant_map_fault_hook([](DomainId, DomainId) { return true; });
  const auto guest_before = held(guest_);
  EXPECT_EQ(xs_->Connect(guest_).code(), StatusCode::kUnavailable);
  EXPECT_EQ(held(guest_), guest_before);
  EXPECT_EQ(connected_ports(logic_), logic_ports_before);
  // The release's unmap of the never-mapped ring grant is refused, and a
  // refused unmap is not counted as one.
  EXPECT_EQ(obs_.metrics().GetCounter("hv.grant.maps")->value(), 0u);
  EXPECT_EQ(obs_.metrics().GetCounter("hv.grant.unmaps")->value(), 0u);
  hv_->set_grant_map_fault_hook(nullptr);
  EXPECT_TRUE(xs_->Connect(guest_).ok());
}

TEST_F(XsServiceTest, LogicRestartMakesServiceUnavailableThenRecovers) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  ASSERT_TRUE(xs_->Write(guest_, "/g/k", "before").ok());

  ASSERT_TRUE(xs_->BeginLogicRestart().ok());
  EXPECT_FALSE(xs_->logic_available());
  EXPECT_EQ(xs_->Read(guest_, "/g/k").status().code(),
            StatusCode::kUnavailable);
  sim_.RunFor(FromMilliseconds(20));
  ASSERT_TRUE(xs_->CompleteLogicRestart().ok());
  EXPECT_TRUE(xs_->logic_available());
  // State lives in XenStore-State: contents survived the Logic restart.
  EXPECT_EQ(*xs_->Read(guest_, "/g/k"), "before");
}

TEST_F(XsServiceTest, WatchesSurviveLogicRestart) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  int fires = 0;
  ASSERT_TRUE(
      xs_->Watch(guest_, "/g", "tok", [&](const XsWatchEvent&) { ++fires; })
          .ok());
  sim_.RunFor(kMillisecond);
  const int after_registration = fires;
  ASSERT_TRUE(xs_->BeginLogicRestart().ok());
  sim_.RunFor(FromMilliseconds(20));
  ASSERT_TRUE(xs_->CompleteLogicRestart().ok());
  ASSERT_TRUE(xs_->Write(guest_, "/g/k", "v").ok());
  sim_.RunFor(kMillisecond);
  EXPECT_EQ(fires, after_registration + 1);
}

TEST_F(XsServiceTest, MonolithicXenstoredCannotRestartIndependently) {
  SetUpMonolithic();
  EXPECT_EQ(xs_->BeginLogicRestart().code(), StatusCode::kFailedPrecondition);
}

TEST_F(XsServiceTest, PerRequestRestartPolicyCountsRollbacks) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  xs_->set_restart_policy(XenStoreService::RestartPolicy::kPerRequest);
  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  const std::uint64_t before = xs_->logic_restarts();
  ASSERT_TRUE(xs_->Write(guest_, "/g/a", "1").ok());
  (void)xs_->Read(guest_, "/g/a");
  EXPECT_EQ(xs_->logic_restarts(), before + 2);
}

TEST_F(XsServiceTest, WatchDeliveryIsAsynchronous) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  int fires = 0;
  ASSERT_TRUE(
      xs_->Watch(guest_, "/g", "tok", [&](const XsWatchEvent&) { ++fires; })
          .ok());
  EXPECT_EQ(fires, 0);  // not delivered synchronously
  sim_.RunFor(kMillisecond);
  EXPECT_EQ(fires, 1);  // registration event arrives via the simulator
}

TEST_F(XsServiceTest, TransactionsThroughService) {
  SetUpSplit();
  ASSERT_TRUE(xs_->Connect(guest_).ok());
  xs_->store().Mkdir(logic_, "/g");
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(xs_->store().SetPerms(logic_, "/g", perms).ok());
  auto tx = xs_->TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(xs_->WriteTx(guest_, "/g/a", "1", *tx).ok());
  ASSERT_TRUE(xs_->TransactionEnd(guest_, *tx, true).ok());
  EXPECT_EQ(*xs_->Read(guest_, "/g/a"), "1");
}

TEST_F(XsServiceTest, OverlongGuestPathRefusedNeighbourStillServed) {
  SetUpSharded();
  std::string hostile = TenantDir(guest_);
  for (int i = 0; i < 100000; ++i) {
    hostile += "/x";
  }
  EXPECT_EQ(xs_->Write(guest_, hostile, "v").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(xs_->Write(guest_b_, TenantDir(guest_b_) + "/k", "1").ok());
  EXPECT_EQ(*xs_->Read(guest_b_, TenantDir(guest_b_) + "/k"), "1");
  ASSERT_TRUE(xs_->Write(guest_, TenantDir(guest_) + "/k", "2").ok());
  EXPECT_EQ(xs_->store().NodesOwnedBy(guest_), 2u);
}

// --- XenStore-State shard microreboots (SCALING.md) ---

TEST_F(XsServiceTest, StateShardRestartStallsOnlyItsTenants) {
  SetUpSharded();
  const std::string key_a = TenantDir(guest_) + "/k";
  const std::string key_b = TenantDir(guest_b_) + "/k";
  ASSERT_TRUE(xs_->Write(guest_, key_a, "va").ok());
  ASSERT_TRUE(xs_->Write(guest_b_, key_b, "vb").ok());

  const int shard_b = xs_->store().ShardIndexForDomain(guest_b_);
  ASSERT_TRUE(xs_->BeginStateShardRestart(shard_b).ok());
  EXPECT_FALSE(xs_->store().shard_available(shard_b));

  // Mid-restart: only the restarting partition's tenants are stalled.
  EXPECT_EQ(xs_->Read(guest_b_, key_b).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(*xs_->Read(guest_, key_a), "va");
  // Spanning operations need every partition up.
  EXPECT_EQ(xs_->List(guest_, "/local/domain").status().code(),
            StatusCode::kUnavailable);

  ASSERT_TRUE(xs_->CompleteStateShardRestart(shard_b).ok());
  EXPECT_TRUE(xs_->store().shard_available(shard_b));
  // The contents stayed in place through the restart.
  EXPECT_EQ(*xs_->Read(guest_b_, key_b), "vb");
  EXPECT_EQ(xs_->state_shard_restarts(), 1u);
}

TEST_F(XsServiceTest, StateShardRestartDropsOnlyItsTenantsVolatileState) {
  SetUpSharded();
  int fires_a = 0;
  int fires_b = 0;
  ASSERT_TRUE(xs_->Watch(guest_, TenantDir(guest_), "ta",
                         [&](const XsWatchEvent&) { ++fires_a; })
                  .ok());
  ASSERT_TRUE(xs_->Watch(guest_b_, TenantDir(guest_b_), "tb",
                         [&](const XsWatchEvent&) { ++fires_b; })
                  .ok());
  sim_.RunFor(kMillisecond);  // flush registration fires
  auto tx_a = xs_->TransactionStart(guest_);
  auto tx_b = xs_->TransactionStart(guest_b_);
  ASSERT_TRUE(tx_a.ok());
  ASSERT_TRUE(tx_b.ok());

  const int shard_b = xs_->store().ShardIndexForDomain(guest_b_);
  ASSERT_TRUE(xs_->BeginStateShardRestart(shard_b).ok());
  sim_.RunFor(FromMilliseconds(20));
  ASSERT_TRUE(xs_->CompleteStateShardRestart(shard_b).ok());

  // Tenant A's watch and transaction live on the untouched shard.
  const int before_a = fires_a;
  const int before_b = fires_b;
  ASSERT_TRUE(xs_->WriteTx(guest_, TenantDir(guest_) + "/t", "1", *tx_a).ok());
  EXPECT_TRUE(xs_->TransactionEnd(guest_, *tx_a, true).ok());
  ASSERT_TRUE(xs_->Write(guest_, TenantDir(guest_) + "/w", "1").ok());
  sim_.RunFor(kMillisecond);
  EXPECT_GT(fires_a, before_a);

  // Tenant B's were dropped by its shard's microreboot: the transaction
  // handle is dead and the watch no longer fires.
  EXPECT_EQ(xs_->WriteTx(guest_b_, TenantDir(guest_b_) + "/t", "1", *tx_b)
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(xs_->Write(guest_b_, TenantDir(guest_b_) + "/w", "1").ok());
  sim_.RunFor(kMillisecond);
  EXPECT_EQ(fires_b, before_b);
}

TEST_F(XsServiceTest, StateShardRestartValidatesItsPreconditions) {
  SetUpSharded();
  EXPECT_EQ(xs_->BeginStateShardRestart(7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(xs_->CompleteStateShardRestart(0).code(),
            StatusCode::kFailedPrecondition);  // not restarting
  ASSERT_TRUE(xs_->BeginStateShardRestart(0).ok());
  EXPECT_EQ(xs_->BeginStateShardRestart(0).code(),
            StatusCode::kFailedPrecondition);  // already down
  ASSERT_TRUE(xs_->CompleteStateShardRestart(0).ok());
}

// A request the shard gate refuses was never served: it counts neither as
// a request nor, under the per-request policy, as a Logic restart.
TEST_F(XsServiceTest, ShardGateRefusalCountsNoRequestNorLogicRestart) {
  SetUpSharded();
  xs_->set_restart_policy(XenStoreService::RestartPolicy::kPerRequest);
  const std::string key_a = TenantDir(guest_) + "/k";
  const std::string key_b = TenantDir(guest_b_) + "/k";
  ASSERT_TRUE(xs_->Write(guest_b_, key_b, "vb").ok());
  auto tx_b = xs_->TransactionStart(guest_b_);
  ASSERT_TRUE(tx_b.ok());
  ASSERT_TRUE(
      xs_->BeginStateShardRestart(xs_->store().ShardIndexForDomain(guest_b_))
          .ok());
  const std::uint64_t requests = xs_->requests_processed();
  const std::uint64_t restarts = xs_->logic_restarts();
  EXPECT_EQ(xs_->Read(guest_b_, key_b).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(xs_->Write(guest_b_, key_b, "x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(xs_->List(guest_, "/local/domain").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(xs_->TransactionStart(guest_b_).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(xs_->WriteTx(guest_b_, key_b, "x", *tx_b).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(xs_->requests_processed(), requests);
  EXPECT_EQ(xs_->logic_restarts(), restarts);
  // A request the store served counts, whatever it answered.
  ASSERT_TRUE(xs_->Write(guest_, key_a, "va").ok());
  EXPECT_EQ(xs_->Read(guest_, TenantDir(guest_) + "/missing").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xs_->requests_processed(), requests + 2);
  EXPECT_EQ(xs_->logic_restarts(), restarts + 2);
}

// A transaction dies with its home shard's restart. Its id then names
// nothing, not even the caller's next transaction. While the home shard
// restarts, every transactional request of its tenants is refused
// UNAVAILABLE, an unknown id's too.
TEST_F(XsServiceTest, TransactionIdFromBeforeStateShardRestartIsNotFound) {
  SetUpSharded();
  const int home = xs_->store().ShardIndexForDomain(guest_b_);
  const std::string key = TenantDir(guest_b_) + "/k";
  auto old_tx = xs_->TransactionStart(guest_b_);
  ASSERT_TRUE(old_tx.ok());
  ASSERT_TRUE(xs_->WriteTx(guest_b_, key, "old", *old_tx).ok());
  ASSERT_TRUE(xs_->BeginStateShardRestart(home).ok());
  const XsStore::TxId never_issued = *old_tx + 100;
  EXPECT_EQ(xs_->WriteTx(guest_b_, key, "x", never_issued).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(xs_->TransactionEnd(guest_b_, never_issued, true).code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(xs_->CompleteStateShardRestart(home).ok());

  auto new_tx = xs_->TransactionStart(guest_b_);
  ASSERT_TRUE(new_tx.ok());
  EXPECT_NE(*new_tx, *old_tx);
  ASSERT_TRUE(xs_->WriteTx(guest_b_, key, "new", *new_tx).ok());
  EXPECT_EQ(xs_->WriteTx(guest_b_, key, "stale", *old_tx).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xs_->ReadTx(guest_b_, key, *old_tx).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(xs_->TransactionEnd(guest_b_, *old_tx, true).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(xs_->TransactionEnd(guest_b_, *new_tx, true).ok());
  EXPECT_EQ(*xs_->Read(guest_b_, key), "new");
}

TEST_F(XsServiceTest, MonolithicXenstoredHasNoRestartableStateShards) {
  SetUpMonolithic();
  EXPECT_EQ(xs_->BeginStateShardRestart(0).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(XsServiceTest, TransactionsPinnedToHomeShardInShardedDeployment) {
  SetUpSharded();
  const int home = xs_->store().ShardIndexForDomain(guest_b_);
  const std::string key = TenantDir(guest_b_) + "/k";
  auto tx = xs_->TransactionStart(guest_b_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(xs_->WriteTx(guest_b_, key, "tv", *tx).ok());
  // The transaction lives on the home shard, under the id it was given.
  EXPECT_EQ(*xs_->store().shard(home).Read(guest_b_, key, *tx), "tv");
  EXPECT_FALSE(xs_->store().shard(1 - home).Exists(guest_b_, key, *tx));
  ASSERT_TRUE(xs_->TransactionEnd(guest_b_, *tx, true).ok());
  EXPECT_EQ(*xs_->Read(guest_b_, TenantDir(guest_b_) + "/k"), "tv");
}

// Transaction ids are sequential, so any guest can name another's. A guest
// on the owner's shard and one on the other shard each get NOT_FOUND from
// every transactional request through a foreign id, as for an id never
// issued; nothing they send reaches the transaction, and the owner can
// still commit it.
TEST_F(XsServiceTest, ForeignTransactionIdIsUnknownToEveryRequest) {
  SetUpSharded();
  const DomainId guest_c = NewDomain("guest-c", false);
  ASSERT_TRUE(hv_->AuthorizeShardUse(boot_, guest_c, logic_).ok());
  ASSERT_EQ(xs_->store().ShardIndexForDomain(guest_c),
            xs_->store().ShardIndexForDomain(guest_));
  ASSERT_TRUE(xs_->Connect(guest_c).ok());
  MakeTenantDir(guest_c);
  auto tx = xs_->TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  const XsStore::TxId never_issued = *tx + 100;
  for (const DomainId foreign : {guest_c, guest_b_}) {
    const std::string planted = TenantDir(foreign) + "/planted";
    for (const XsStore::TxId id : {*tx, never_issued}) {
      SCOPED_TRACE(testing::Message() << "dom" << foreign.value() << " tx "
                                      << id);
      const Status write = xs_->WriteTx(foreign, planted, "evil", id);
      EXPECT_EQ(write.code(), StatusCode::kNotFound);
      EXPECT_EQ(write.message(), "no such transaction");
      EXPECT_EQ(xs_->ReadTx(foreign, planted, id).status().code(),
                StatusCode::kNotFound);
      EXPECT_EQ(xs_->TransactionEnd(foreign, id, /*commit=*/true).code(),
                StatusCode::kNotFound);
    }
  }
  ASSERT_TRUE(
      xs_->WriteTx(guest_, TenantDir(guest_) + "/mine", "ok", *tx).ok());
  ASSERT_TRUE(xs_->TransactionEnd(guest_, *tx, /*commit=*/true).ok());
  EXPECT_EQ(*xs_->Read(guest_, TenantDir(guest_) + "/mine"), "ok");
  for (const DomainId foreign : {guest_c, guest_b_}) {
    EXPECT_FALSE(
        xs_->store().Exists(logic_, TenantDir(foreign) + "/planted"));
  }
}

// The wire protocol: push a request through an actual grant-mapped ring
// page between guest and logic domain.
TEST_F(XsServiceTest, WireProtocolOverGrantedRing) {
  SetUpSplit();
  Pfn pfn = *hv_->memory().AllocatePages(guest_, 1);
  GrantRef ref = *hv_->GrantAccess(guest_, logic_, pfn, true);
  auto mapped = hv_->MapGrant(logic_, guest_, ref);
  ASSERT_TRUE(mapped.ok());

  XsRing guest_ring = XsRing::Create(hv_->memory().PageData(pfn));
  XsRing server_ring = XsRing::Attach(mapped->data);

  XsWireRequest request{};
  request.op = static_cast<std::uint32_t>(XsWireOp::kWrite);
  request.SetPath("/local/domain/5/name");
  request.SetValue("web");
  ASSERT_TRUE(guest_ring.PushRequest(request));

  auto received = server_ring.PopRequest();
  ASSERT_TRUE(received.has_value());
  EXPECT_STREQ(received->path, "/local/domain/5/name");
  EXPECT_STREQ(received->value, "web");

  XsWireResponse response{};
  response.status = 0;
  response.SetValue("ok");
  ASSERT_TRUE(server_ring.PushResponse(response));
  auto reply = guest_ring.PopResponse();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->Value(), "ok");
}

}  // namespace
}  // namespace xoar
