// Tests for the path-prefix sharded XenStore-State facade (SCALING.md):
// routing, spanning-prefix fan-out and merge, transaction pinning,
// per-shard snapshot/restore isolation, and resharding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/sharded_store.h"

namespace xoar {
namespace {

class XsShardTest : public ::testing::Test {
 protected:
  explicit XsShardTest(int shard_count = 4) : store_(&obs_, shard_count) {
    store_.AddManagerDomain(manager_);
  }

  // Creates /local/domain/<id> owned by a guest domain with that id.
  DomainId NewTenant(std::uint32_t id) {
    const DomainId guest{id};
    const std::string dir = TenantDir(guest);
    EXPECT_TRUE(store_.Mkdir(manager_, dir).ok());
    XsNodePerms perms;
    perms.owner = guest;
    EXPECT_TRUE(store_.SetPerms(manager_, dir, perms).ok());
    return guest;
  }

  static std::string TenantDir(DomainId guest) {
    return StrFormat("/local/domain/%u", guest.value());
  }

  Obs obs_;
  XsShardedStore store_;
  DomainId manager_{0};
};

TEST_F(XsShardTest, TenantPathsRouteByDomainIdModuloShards) {
  ASSERT_EQ(store_.shard_count(), 4);
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/5/name"), 1);
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/8"), 0);
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/7/device/vif"), 3);
  // Non-tenant paths live on shard 0.
  EXPECT_EQ(store_.ShardIndexForPath("/tool/xenstored"), 0);
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/ghost"), 0);
  // A tenant's directory and its home shard agree, so transactions pinned
  // to the home shard can reach the tenant's own subtree.
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/6"),
            store_.ShardIndexForDomain(DomainId{6}));

  ASSERT_TRUE(store_.Write(manager_, "/local/domain/5/name", "web").ok());
  // The node physically lives on its routed shard and nowhere else.
  EXPECT_TRUE(store_.shard(1).Exists(manager_, "/local/domain/5/name"));
  EXPECT_FALSE(store_.shard(0).Exists(manager_, "/local/domain/5/name"));
  EXPECT_FALSE(store_.shard(2).Exists(manager_, "/local/domain/5/name"));
  EXPECT_EQ(*store_.Read(manager_, "/local/domain/5/name"), "web");
}

// Routing reads at most the first three segments of a path. Edge cases:
// doubled separators, a zero-padded id, a non-numeric id, a lookalike
// prefix.
TEST_F(XsShardTest, RoutingAnswersAreUnchanged) {
  struct Case {
    const char* path;
    int shard;
    bool spanning;
  };
  const Case cases[] = {
      {"/", 0, true},
      {"/local", 0, true},
      {"/local/domain", 0, true},
      {"/local//domain/7/x", 3, false},
      {"/local/domain/007", 3, false},
      {"/local/domain/x1", 0, false},
      {"/localx/domain/7", 0, false},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(store_.ShardIndexForPath(c.path), c.shard) << c.path;
    EXPECT_EQ(XsShardedStore::IsSpanningPath(c.path), c.spanning) << c.path;
  }
}

TEST_F(XsShardTest, SpanningPrefixesExistOnEveryShard) {
  EXPECT_TRUE(XsShardedStore::IsSpanningPath("/"));
  EXPECT_TRUE(XsShardedStore::IsSpanningPath("/local"));
  EXPECT_TRUE(XsShardedStore::IsSpanningPath("/local/domain"));
  EXPECT_FALSE(XsShardedStore::IsSpanningPath("/local/domain/3"));
  EXPECT_FALSE(XsShardedStore::IsSpanningPath("/tool"));

  // A spanning mkdir fans out: every partition keeps the ancestor chain.
  ASSERT_TRUE(store_.Mkdir(manager_, "/local/domain").ok());
  for (int i = 0; i < store_.shard_count(); ++i) {
    EXPECT_TRUE(store_.shard(i).Exists(manager_, "/local/domain"))
        << "shard " << i;
  }
}

TEST_F(XsShardTest, ListMergesSpanningDirectoryAcrossShards) {
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/1/x", "a").ok());
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/2/x", "b").ok());
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/3/x", "c").ok());
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/10/x", "d").ok());
  auto names = store_.List(manager_, "/local/domain");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"1", "10", "2", "3"}));
}

TEST_F(XsShardTest, SpanningWatchFiresOncePerEvent) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/local/domain", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  // The watch registered on all four shards, but the xenstored-style
  // immediate fire is delivered exactly once, not once per shard.
  EXPECT_EQ(fires, 1);
  // One mutation on one partition: one event, even though the watch node
  // exists on every shard.
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/1/a", "v").ok());
  EXPECT_EQ(fires, 2);
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/2/a", "v").ok());
  EXPECT_EQ(fires, 3);
  ASSERT_TRUE(store_.Unwatch(manager_, "/local/domain", "tok").ok());
  EXPECT_EQ(store_.WatchCount(), 0u);
}

TEST_F(XsShardTest, TransactionsPinToCallersHomeShard) {
  const DomainId guest = NewTenant(5);
  auto tx = store_.TransactionStart(guest);
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(store_.ShardOfTransaction(*tx), store_.ShardIndexForDomain(guest));
  ASSERT_TRUE(store_.Write(guest, "/local/domain/5/k", "txv", *tx).ok());
  // Not visible outside the transaction until commit.
  EXPECT_FALSE(store_.Exists(manager_, "/local/domain/5/k"));
  ASSERT_TRUE(store_.TransactionEnd(guest, *tx, true).ok());
  EXPECT_EQ(*store_.Read(manager_, "/local/domain/5/k"), "txv");
  EXPECT_EQ(store_.ShardOfTransaction(*tx), -1);  // handle retired
  // Only the home shard did copy-on-write work, and the facade sums it.
  EXPECT_GT(store_.shard(1).cow_copies(), 0u);
  EXPECT_EQ(store_.cow_copies(), store_.shard(1).cow_copies());
}

TEST_F(XsShardTest, ShardSnapshotRestoreIsolatesPartitions) {
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/1/k", "a1").ok());
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/2/k", "b1").ok());
  const XsStore::Snapshot snap = store_.TakeShardSnapshot(1);
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/1/k", "a2").ok());
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/2/k", "b2").ok());
  store_.RestoreShardSnapshot(1, snap);
  // Shard 1 rolled back; shard 2 untouched by its neighbor's recovery.
  EXPECT_EQ(*store_.Read(manager_, "/local/domain/1/k"), "a1");
  EXPECT_EQ(*store_.Read(manager_, "/local/domain/2/k"), "b2");
}

TEST_F(XsShardTest, DropShardVolatileStateIsPerPartition) {
  const DomainId tenant_a = NewTenant(5);  // home shard 1
  const DomainId tenant_b = NewTenant(6);  // home shard 2
  ASSERT_NE(store_.ShardIndexForDomain(tenant_a),
            store_.ShardIndexForDomain(tenant_b));
  int fires_a = 0;
  int fires_b = 0;
  ASSERT_TRUE(store_
                  .Watch(tenant_a, TenantDir(tenant_a), "ta",
                         [&](const XsWatchEvent&) { ++fires_a; })
                  .ok());
  ASSERT_TRUE(store_
                  .Watch(tenant_b, TenantDir(tenant_b), "tb",
                         [&](const XsWatchEvent&) { ++fires_b; })
                  .ok());
  auto tx_a = store_.TransactionStart(tenant_a);
  auto tx_b = store_.TransactionStart(tenant_b);
  ASSERT_TRUE(tx_a.ok());
  ASSERT_TRUE(tx_b.ok());

  store_.DropShardVolatileState(store_.ShardIndexForDomain(tenant_a));

  // Only tenant A's shard lost its watches and transactions.
  EXPECT_EQ(store_.WatchCount(), 1u);
  EXPECT_EQ(store_.TransactionEnd(tenant_a, *tx_a, true).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(store_.TransactionEnd(tenant_b, *tx_b, true).ok());
  const int before_a = fires_a;
  const int before_b = fires_b;
  ASSERT_TRUE(store_.Write(tenant_a, TenantDir(tenant_a) + "/k", "1").ok());
  ASSERT_TRUE(store_.Write(tenant_b, TenantDir(tenant_b) + "/k", "1").ok());
  EXPECT_EQ(fires_a, before_a);      // dropped
  EXPECT_EQ(fires_b, before_b + 1);  // still registered
}

TEST_F(XsShardTest, ReshardPreservesContentsQuotaAndManagers) {
  store_.set_node_quota(3);
  const DomainId guest = NewTenant(5);
  ASSERT_TRUE(store_.Write(guest, "/local/domain/5/a", "1").ok());
  ASSERT_TRUE(store_.Write(guest, "/local/domain/5/b", "2").ok());
  // Owns the directory plus two keys: at quota.
  EXPECT_EQ(store_.NodesOwnedBy(guest), 3u);
  EXPECT_FALSE(store_.Write(guest, "/local/domain/5/c", "3").ok());
  // Logical contents (spanning ancestor chain deduplicated; NodeCount is
  // physical and grows by O(shards) replicas of that chain).
  const std::size_t logical_before = store_.Serialize().size();

  store_.Reshard(8);

  ASSERT_EQ(store_.shard_count(), 8);
  // Contents, ownership and perms survived the repartitioning...
  EXPECT_EQ(store_.Serialize().size(), logical_before);
  EXPECT_EQ(*store_.Read(guest, "/local/domain/5/a"), "1");
  EXPECT_EQ(*store_.Read(guest, "/local/domain/5/b"), "2");
  // ...and the tenant directory moved to its new home shard, alone.
  EXPECT_TRUE(store_.shard(5).Exists(manager_, "/local/domain/5/a"));
  EXPECT_FALSE(store_.shard(1).Exists(manager_, "/local/domain/5/a"));
  // Quota counters were rebuilt, not reset: still at quota.
  EXPECT_EQ(store_.NodesOwnedBy(guest), 3u);
  EXPECT_FALSE(store_.Write(guest, "/local/domain/5/c", "3").ok());
  // The manager set survived too (managers are quota-exempt).
  EXPECT_TRUE(store_.IsManager(manager_));
  EXPECT_TRUE(store_.Write(manager_, "/tool/status", "up").ok());
  // Watches and live transactions do not survive a reshard.
  EXPECT_EQ(store_.WatchCount(), 0u);
}

TEST_F(XsShardTest, ReshardKeepsNodesChownedAboveTheQuota) {
  // A manager chown is not quota-checked, so a guest can own more nodes
  // than the quota. A reshard restores state rather than serving a guest
  // request: every one of those nodes must survive it.
  store_.set_node_quota(2);
  const DomainId guest{5};
  XsNodePerms perms;
  perms.owner = guest;
  for (const char* path : {"/g/a", "/g/b", "/g/c"}) {
    ASSERT_TRUE(store_.Write(manager_, path, "v").ok());
    ASSERT_TRUE(store_.SetPerms(manager_, path, perms).ok());
  }
  ASSERT_EQ(store_.NodeCount(), 4u);
  ASSERT_EQ(store_.NodesOwnedBy(guest), 3u);

  store_.Reshard(4);

  EXPECT_EQ(store_.NodeCount(), 4u);
  EXPECT_EQ(store_.NodesOwnedBy(guest), 3u);
  EXPECT_TRUE(store_.Exists(guest, "/g/c"));
}

class XsSingleShardTest : public XsShardTest {
 protected:
  XsSingleShardTest() : XsShardTest(1) {}
};

TEST_F(XsSingleShardTest, SingleShardRoutesEverythingToShardZero) {
  ASSERT_EQ(store_.shard_count(), 1);
  EXPECT_EQ(store_.ShardIndexForPath("/local/domain/7/name"), 0);
  EXPECT_EQ(store_.ShardIndexForDomain(DomainId{7}), 0);
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/7/name", "web").ok());
  EXPECT_EQ(*store_.Read(manager_, "/local/domain/7/name"), "web");
  // Spanning operations neither fan out nor merge: plain XsStore behavior.
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/local/domain", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(store_.WatchCount(), 1u);
  auto names = store_.List(manager_, "/local/domain");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"7"}));
}

}  // namespace
}  // namespace xoar
