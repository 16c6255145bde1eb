#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/cow_map.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

class XsStoreTest : public ::testing::Test {
 protected:
  XsStoreTest() {
    store_.AddManagerDomain(manager_);
  }

  Obs obs_;
  XsStore store_{&obs_};
  DomainId manager_{0};
  DomainId guest_{5};
  DomainId other_{6};
};

TEST_F(XsStoreTest, WriteAndReadBack) {
  ASSERT_TRUE(store_.Write(manager_, "/local/domain/5/name", "web").ok());
  auto value = store_.Read(manager_, "/local/domain/5/name");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "web");
}

TEST_F(XsStoreTest, ReadMissingFails) {
  EXPECT_EQ(store_.Read(manager_, "/nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(XsStoreTest, WriteCreatesIntermediateNodes) {
  ASSERT_TRUE(store_.Write(manager_, "/a/b/c", "v").ok());
  EXPECT_TRUE(store_.Exists(manager_, "/a"));
  EXPECT_TRUE(store_.Exists(manager_, "/a/b"));
}

TEST_F(XsStoreTest, PathsAreNormalized) {
  ASSERT_TRUE(store_.Write(manager_, "a//b/", "v").ok());
  EXPECT_EQ(*store_.Read(manager_, "/a/b"), "v");
}

// A guest picks its own paths (§6.2). Paths are capped at xenstored's
// 3072 bytes after normalization, which bounds the tree's depth and so
// every recursion over it: without the cap this write is accepted and a
// later Serialize overflows the stack.
TEST_F(XsStoreTest, OverlongPathIsRefused) {
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.Mkdir(manager_, "/local/domain/5").ok());
  ASSERT_TRUE(store_.SetPerms(manager_, "/local/domain/5", perms).ok());
  std::string hostile = "/local/domain/5";
  for (int i = 0; i < 100000; ++i) {
    hostile += "/x";
  }
  ASSERT_EQ(store_.Write(guest_, hostile, "v").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.NodeCount(), 3u);
  EXPECT_EQ(store_.Mkdir(guest_, hostile).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.Read(guest_, hostile).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(store_.Exists(guest_, hostile));
  EXPECT_EQ(store_.Watch(guest_, hostile, "t", [](const XsWatchEvent&) {})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.WatchCount(), 0u);

  // The limit itself: 1536 segments, 3072 bytes. Redundant separators do
  // not count against it.
  std::string longest;
  for (int i = 0; i < 1536; ++i) {
    longest += "/x";
  }
  ASSERT_EQ(longest.size(), 3072u);
  EXPECT_EQ(store_.Write(manager_, longest + "y", "v").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store_.Write(manager_, "/" + longest + "/", "deep").ok());
  EXPECT_EQ(*store_.Read(manager_, longest), "deep");
  EXPECT_EQ(*store_.List(manager_, longest.substr(0, 3070)),
            (std::vector<std::string>{"x"}));
  const std::vector<XsStore::FlatNode> flat = store_.Serialize();
  ASSERT_EQ(flat.size(), 3u + 1536u);
  EXPECT_EQ(flat.back().path, longest);
  XsStore copy(&obs_);
  copy.AddManagerDomain(manager_);
  copy.Restore(flat);
  EXPECT_EQ(*copy.Read(manager_, longest), "deep");
  ASSERT_TRUE(store_.Remove(manager_, "/x").ok());
  EXPECT_EQ(store_.NodeCount(), 3u);
  // Leave a full-depth chain for the destructor to free.
  ASSERT_TRUE(store_.Write(manager_, longest, "deep").ok());
}

TEST_F(XsStoreTest, ListReturnsChildren) {
  ASSERT_TRUE(store_.Write(manager_, "/dir/x", "1").ok());
  ASSERT_TRUE(store_.Write(manager_, "/dir/y", "2").ok());
  auto names = store_.List(manager_, "/dir");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"x", "y"}));
}

TEST_F(XsStoreTest, RemoveDeletesSubtree) {
  ASSERT_TRUE(store_.Write(manager_, "/dir/x/deep", "1").ok());
  ASSERT_TRUE(store_.Remove(manager_, "/dir/x").ok());
  EXPECT_FALSE(store_.Exists(manager_, "/dir/x"));
  EXPECT_FALSE(store_.Exists(manager_, "/dir/x/deep"));
  EXPECT_TRUE(store_.Exists(manager_, "/dir"));
}

TEST_F(XsStoreTest, RemoveRootRejected) {
  EXPECT_EQ(store_.Remove(manager_, "/").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(XsStoreTest, MkdirIsIdempotent) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/dir").ok());
  EXPECT_TRUE(store_.Mkdir(manager_, "/dir").ok());
}

// --- Permissions ---

TEST_F(XsStoreTest, OwnerHasFullAccessOthersNone) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/guest").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/guest", perms).ok());
  ASSERT_TRUE(store_.Write(guest_, "/guest/key", "v").ok());
  EXPECT_EQ(*store_.Read(guest_, "/guest/key"), "v");
  EXPECT_EQ(store_.Read(other_, "/guest/key").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(store_.Write(other_, "/guest/key", "x").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XsStoreTest, AclGrantsSpecificRights) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/guest").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  perms.acl[other_] = XsPerm::kRead;
  ASSERT_TRUE(store_.SetPerms(manager_, "/guest", perms).ok());
  ASSERT_TRUE(store_.Write(guest_, "/guest", "v").ok());
  EXPECT_EQ(*store_.Read(other_, "/guest"), "v");
  EXPECT_EQ(store_.Write(other_, "/guest", "x").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XsStoreTest, CreationRequiresWriteOnDeepestAncestor) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/guarded").ok());
  // /guarded is owned by the manager; a guest cannot create below it.
  EXPECT_EQ(store_.Write(guest_, "/guarded/sub", "v").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(XsStoreTest, OnlyOwnerOrManagerSetsPerms) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/node").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  EXPECT_EQ(store_.SetPerms(other_, "/node", perms).code(),
            StatusCode::kPermissionDenied);
  EXPECT_TRUE(store_.SetPerms(manager_, "/node", perms).ok());
  // The new owner can give the node away again (chown pattern used by the
  // toolstack when setting up device directories).
  XsNodePerms back;
  back.owner = other_;
  EXPECT_TRUE(store_.SetPerms(guest_, "/node", back).ok());
}

TEST_F(XsStoreTest, NewNodesOwnedByCreator) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/mine", "v").ok());
  auto node_perms = store_.GetPerms(guest_, "/g/mine");
  ASSERT_TRUE(node_perms.ok());
  EXPECT_EQ(node_perms->owner, guest_);
}

// --- Quota (DoS defense, §4.4) ---

TEST_F(XsStoreTest, QuotaBoundsGuestNodes) {
  store_.set_node_quota(10);
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  Status last = Status::Ok();
  int created = 0;
  for (int i = 0; i < 20; ++i) {
    last = store_.Write(guest_, StrFormat("/g/n%d", i), "v");
    if (last.ok()) {
      ++created;
    }
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(created, 10);
  // Managers are exempt.
  EXPECT_TRUE(store_.Write(manager_, "/g/manager-node", "v").ok());
}

TEST_F(XsStoreTest, QuotaEnforcedAtTenThousandNodes) {
  // Population at this scale exercises the incremental owner counters; the
  // quota check must not degrade node creation to a full-tree walk.
  const std::size_t quota = 10000;
  store_.set_node_quota(quota + 1);  // +1 for /g itself
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  for (std::size_t i = 0; i < quota; ++i) {
    ASSERT_TRUE(store_.Write(guest_, StrFormat("/g/n%zu", i), "v").ok()) << i;
  }
  EXPECT_EQ(store_.NodesOwnedBy(guest_), quota + 1);
  EXPECT_EQ(store_.Write(guest_, "/g/overflow", "v").code(),
            StatusCode::kResourceExhausted);
  // Freeing nodes must free quota (counters shrink on removal).
  ASSERT_TRUE(store_.Remove(guest_, "/g/n0").ok());
  EXPECT_EQ(store_.NodesOwnedBy(guest_), quota);
  EXPECT_TRUE(store_.Write(guest_, "/g/again", "v").ok());
}

TEST_F(XsStoreTest, SubtreeRemovalReleasesOwnerCounts) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/a/b/c", "v").ok());
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 4u);  // /g + a + b + c
  ASSERT_TRUE(store_.Remove(guest_, "/g/a").ok());
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 1u);
}

TEST_F(XsStoreTest, ChownMovesOwnerCount) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/node").ok());
  const std::size_t manager_before = store_.NodesOwnedBy(manager_);
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/node", perms).ok());
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 1u);
  EXPECT_EQ(store_.NodesOwnedBy(manager_), manager_before - 1);
}

// --- Watches ---

TEST_F(XsStoreTest, WatchFiresImmediatelyOnRegistration) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/a", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  EXPECT_EQ(fires, 1);
}

TEST_F(XsStoreTest, WatchFiresOnWriteAtOrBelowPath) {
  std::vector<std::string> paths;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/dev", "tok",
                         [&](const XsWatchEvent& e) { paths.push_back(e.path); })
                  .ok());
  ASSERT_TRUE(store_.Write(manager_, "/dev/vif/0/state", "4").ok());
  ASSERT_TRUE(store_.Write(manager_, "/unrelated", "x").ok());
  ASSERT_EQ(paths.size(), 2u);  // registration + /dev/vif/0/state
  EXPECT_EQ(paths[1], "/dev/vif/0/state");
}

TEST_F(XsStoreTest, WatchTokenDeliveredWithEvent) {
  std::string token;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/a", "my-token",
                         [&](const XsWatchEvent& e) { token = e.token; })
                  .ok());
  EXPECT_EQ(token, "my-token");
}

TEST_F(XsStoreTest, UnwatchStopsEvents) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/a", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  ASSERT_TRUE(store_.Unwatch(manager_, "/a", "tok").ok());
  ASSERT_TRUE(store_.Write(manager_, "/a/b", "v").ok());
  EXPECT_EQ(fires, 1);  // only the registration fire
}

TEST_F(XsStoreTest, DuplicateWatchRejected) {
  auto cb = [](const XsWatchEvent&) {};
  ASSERT_TRUE(store_.Watch(manager_, "/a", "tok", cb).ok());
  EXPECT_EQ(store_.Watch(manager_, "/a", "tok", cb).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(XsStoreTest, RemoveFiresWatchesBelowRemovedPath) {
  ASSERT_TRUE(store_.Write(manager_, "/dir/sub/leaf", "v").ok());
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/dir/sub/leaf", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  ASSERT_TRUE(store_.Remove(manager_, "/dir").ok());
  EXPECT_EQ(fires, 2);  // registration + removal of an ancestor
}

TEST_F(XsStoreTest, ReentrantWatchRegistrationDuringInitialFire) {
  // The registration fire runs a callback that registers another watch on
  // the *same* path — under the old vector storage this reallocated the
  // entry the store was firing through.
  int inner_fires = 0;
  int outer_fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/a", "outer",
                         [&](const XsWatchEvent&) {
                           ++outer_fires;
                           if (outer_fires == 1) {
                             (void)store_.Watch(
                                 manager_, "/a", "inner",
                                 [&](const XsWatchEvent&) { ++inner_fires; });
                           }
                         })
                  .ok());
  EXPECT_EQ(outer_fires, 1);
  EXPECT_EQ(inner_fires, 1);  // inner's own registration fire
  ASSERT_TRUE(store_.Write(manager_, "/a/k", "v").ok());
  EXPECT_EQ(outer_fires, 2);
  EXPECT_EQ(inner_fires, 2);
}

TEST_F(XsStoreTest, WatchUnregisteringItselfDuringInitialFire) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/a", "tok",
                         [&](const XsWatchEvent&) {
                           ++fires;
                           (void)store_.Unwatch(manager_, "/a", "tok");
                         })
                  .ok());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(store_.WatchCount(), 0u);
  ASSERT_TRUE(store_.Write(manager_, "/a/k", "v").ok());
  EXPECT_EQ(fires, 1);  // gone after self-unwatch
}

TEST_F(XsStoreTest, ReentrantUnwatchDuringDispatch) {
  // A firing callback removes a *different* watch on the same path;
  // dispatch must not read through freed storage.
  int a_fires = 0;
  int b_fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/p", "a",
                         [&](const XsWatchEvent&) {
                           ++a_fires;
                           (void)store_.Unwatch(manager_, "/p", "b");
                         })
                  .ok());
  ASSERT_TRUE(store_
                  .Watch(manager_, "/p", "b",
                         [&](const XsWatchEvent&) { ++b_fires; })
                  .ok());
  ASSERT_TRUE(store_.Write(manager_, "/p/k", "v").ok());
  // Both were collected for this dispatch before "a" removed "b".
  EXPECT_EQ(a_fires, 2);
  EXPECT_GE(b_fires, 1);
  ASSERT_TRUE(store_.Write(manager_, "/p/k", "w").ok());
  EXPECT_EQ(a_fires, 3);
  EXPECT_LE(b_fires, 2);  // no further fires once removed
}

TEST_F(XsStoreTest, WatchDispatchOnlyVisitsMatchingPaths) {
  std::vector<std::string> fired_tokens;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store_
                    .Watch(manager_, StrFormat("/w/%d", i), "tok",
                           [&, i](const XsWatchEvent&) {
                             fired_tokens.push_back(StrFormat("w%d", i));
                           })
                    .ok());
  }
  fired_tokens.clear();  // drop the registration fires
  ASSERT_TRUE(store_.Write(manager_, "/w/7/state", "4").ok());
  EXPECT_EQ(fired_tokens, (std::vector<std::string>{"w7"}));
  // A write above all of them reaches every watch in the subtree.
  fired_tokens.clear();
  ASSERT_TRUE(store_.Remove(manager_, "/w").ok());
  EXPECT_EQ(fired_tokens.size(), 50u);
}

TEST_F(XsStoreTest, RootWatchSeesEverything) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/", "root",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  ASSERT_TRUE(store_.Write(manager_, "/deep/down/key", "v").ok());
  EXPECT_EQ(fires, 2);  // registration + mutation
}

// --- Transactions ---

TEST_F(XsStoreTest, TransactionCommitsAtomically) {
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  ASSERT_TRUE(store_.Write(manager_, "/t/b", "2", *tx).ok());
  EXPECT_FALSE(store_.Exists(manager_, "/t/a"));  // not visible yet
  ASSERT_TRUE(store_.TransactionEnd(manager_, *tx, /*commit=*/true).ok());
  EXPECT_EQ(*store_.Read(manager_, "/t/a"), "1");
  EXPECT_EQ(*store_.Read(manager_, "/t/b"), "2");
}

TEST_F(XsStoreTest, TransactionAbortDiscards) {
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  ASSERT_TRUE(store_.TransactionEnd(manager_, *tx, /*commit=*/false).ok());
  EXPECT_FALSE(store_.Exists(manager_, "/t/a"));
}

TEST_F(XsStoreTest, ConflictingCommitAborts) {
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  // A direct write to the same path lands in between — xenstored would
  // return EAGAIN.
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "x").ok());
  EXPECT_EQ(store_.TransactionEnd(manager_, *tx, true).code(),
            StatusCode::kAborted);
  EXPECT_EQ(*store_.Read(manager_, "/t/a"), "x");
}

TEST_F(XsStoreTest, DisjointDirectWriteDoesNotAbortTransaction) {
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  // Unrelated store activity must not invalidate the transaction.
  ASSERT_TRUE(store_.Write(manager_, "/other", "x").ok());
  EXPECT_TRUE(store_.TransactionEnd(manager_, *tx, true).ok());
  EXPECT_EQ(*store_.Read(manager_, "/t/a"), "1");
  EXPECT_EQ(*store_.Read(manager_, "/other"), "x");
}

TEST_F(XsStoreTest, DisjointTransactionsBothCommit) {
  auto a = store_.TransactionStart(manager_);
  auto b = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/left/key", "A", *a).ok());
  ASSERT_TRUE(store_.Write(manager_, "/right/key", "B", *b).ok());
  EXPECT_TRUE(store_.TransactionEnd(manager_, *a, true).ok());
  EXPECT_TRUE(store_.TransactionEnd(manager_, *b, true).ok());
  // Neither commit clobbered the other.
  EXPECT_EQ(*store_.Read(manager_, "/left/key"), "A");
  EXPECT_EQ(*store_.Read(manager_, "/right/key"), "B");
}

TEST_F(XsStoreTest, OverlappingTransactionsConflict) {
  auto a = store_.TransactionStart(manager_);
  auto b = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/shared/key", "A", *a).ok());
  ASSERT_TRUE(store_.Write(manager_, "/shared/key", "B", *b).ok());
  EXPECT_TRUE(store_.TransactionEnd(manager_, *a, true).ok());
  EXPECT_EQ(store_.TransactionEnd(manager_, *b, true).code(),
            StatusCode::kAborted);
  EXPECT_EQ(*store_.Read(manager_, "/shared/key"), "A");
}

TEST_F(XsStoreTest, ReadSetConflictAborts) {
  ASSERT_TRUE(store_.Write(manager_, "/k", "old").ok());
  auto tx = store_.TransactionStart(manager_);
  EXPECT_EQ(*store_.Read(manager_, "/k", *tx), "old");
  ASSERT_TRUE(store_.Write(manager_, "/d", "1", *tx).ok());
  // What the transaction read changed before commit: abort, even though the
  // write sets are disjoint.
  ASSERT_TRUE(store_.Write(manager_, "/k", "new").ok());
  EXPECT_EQ(store_.TransactionEnd(manager_, *tx, true).code(),
            StatusCode::kAborted);
  EXPECT_FALSE(store_.Exists(manager_, "/d"));
}

TEST_F(XsStoreTest, AncestorRemovalConflictsWithTransaction) {
  ASSERT_TRUE(store_.Write(manager_, "/a/b", "v").ok());
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/a/b/c", "1", *tx).ok());
  // Removing an ancestor overlaps the transaction's write path.
  ASSERT_TRUE(store_.Remove(manager_, "/a").ok());
  EXPECT_EQ(store_.TransactionEnd(manager_, *tx, true).code(),
            StatusCode::kAborted);
}

TEST_F(XsStoreTest, ExistsSeesTransactionView) {
  ASSERT_TRUE(store_.Write(manager_, "/pre", "v").ok());
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  ASSERT_TRUE(store_.Remove(manager_, "/pre", *tx).ok());
  EXPECT_TRUE(store_.Exists(manager_, "/t/a", *tx));
  EXPECT_FALSE(store_.Exists(manager_, "/t/a"));  // not committed yet
  EXPECT_FALSE(store_.Exists(manager_, "/pre", *tx));
  EXPECT_TRUE(store_.Exists(manager_, "/pre"));
}

TEST_F(XsStoreTest, TransactionQuotaEnforcedAndRolledBackOnAbort) {
  store_.set_node_quota(5);
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  const std::size_t owned_before = store_.NodesOwnedBy(guest_);
  auto tx = store_.TransactionStart(guest_);
  Status last = Status::Ok();
  for (int i = 0; i < 10 && last.ok(); ++i) {
    last = store_.Write(guest_, StrFormat("/g/n%d", i), "v", *tx);
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(store_.TransactionEnd(guest_, *tx, /*commit=*/false).ok());
  // Nothing leaked into the live counters.
  EXPECT_EQ(store_.NodesOwnedBy(guest_), owned_before);
}

TEST_F(XsStoreTest, CommitFailingQuotaOnReplayLeavesTreeAndCountersAsBefore) {
  store_.set_node_quota(5);
  XsNodePerms perms;
  perms.owner = guest_;
  for (const char* dir : {"/g/tx", "/g/fill"}) {
    ASSERT_TRUE(store_.Mkdir(manager_, dir).ok());
    ASSERT_TRUE(store_.SetPerms(manager_, dir, perms).ok());
  }
  auto tx = store_.TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/tx/one", "v", *tx).ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/tx/two", "v", *tx).ok());
  // Fill the quota outside the transaction, on a disjoint path: no
  // conflict, but the commit's replay creates its first node and then
  // hits the quota on the second.
  ASSERT_TRUE(store_.Write(guest_, "/g/fill/a", "v").ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/fill/b", "v").ok());
  ASSERT_EQ(store_.NodesOwnedBy(guest_), 4u);
  const std::vector<XsStore::FlatNode> before = store_.Serialize();
  const std::size_t nodes = store_.NodeCount();
  const std::size_t manager_owned = store_.NodesOwnedBy(manager_);

  EXPECT_EQ(store_.TransactionEnd(guest_, *tx, true).code(),
            StatusCode::kAborted);

  const std::vector<XsStore::FlatNode> after = store_.Serialize();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].path, before[i].path);
    EXPECT_EQ(after[i].value, before[i].value);
    EXPECT_EQ(after[i].perms.owner, before[i].perms.owner);
  }
  EXPECT_FALSE(store_.Exists(guest_, "/g/tx/one"));
  EXPECT_EQ(store_.NodeCount(), nodes);
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 4u);
  EXPECT_EQ(store_.NodesOwnedBy(manager_), manager_owned);
}

// The quota is checked for every node a write or mkdir would create before
// any is created: a refusal leaves no partial path, no owner count, no
// generation bump and no watch fire.
TEST_F(XsStoreTest, QuotaRefusalCreatesNothing) {
  store_.set_node_quota(2);
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/g", "tok",
                         [&fires](const XsWatchEvent&) { ++fires; })
                  .ok());
  const std::uint64_t generation = store_.generation();

  EXPECT_EQ(store_.Write(guest_, "/g/a/b/c", "v").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(store_.Mkdir(guest_, "/g/x/y").code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(store_.Exists(manager_, "/g/a"));
  EXPECT_FALSE(store_.Exists(manager_, "/g/x"));
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 1u);
  EXPECT_EQ(store_.NodeCount(), 1u);
  EXPECT_EQ(store_.generation(), generation);
  EXPECT_EQ(fires, 1);  // the registration fire only
  // The refusals took none of the room the quota leaves.
  ASSERT_TRUE(store_.Write(guest_, "/g/a", "v").ok());
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 2u);
}

// Inside a transaction a quota refusal leaves nothing in the transaction's
// view either, so the commit publishes nothing of it.
TEST_F(XsStoreTest, TransactionalQuotaRefusalCreatesNothing) {
  store_.set_node_quota(2);
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  auto tx = store_.TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(store_.Write(guest_, "/g/a/b/c", "v", *tx).code(),
            StatusCode::kResourceExhausted);
  EXPECT_FALSE(store_.Exists(guest_, "/g/a", *tx));
  ASSERT_TRUE(store_.Write(guest_, "/g/k", "v", *tx).ok());
  ASSERT_TRUE(store_.TransactionEnd(guest_, *tx, /*commit=*/true).ok());
  EXPECT_FALSE(store_.Exists(manager_, "/g/a"));
  EXPECT_EQ(*store_.Read(guest_, "/g/k"), "v");
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 2u);
  EXPECT_EQ(store_.NodeCount(), 2u);
}

// A quota set while a transaction is open applies to its commit, even
// though no mutation raced the transaction.
TEST_F(XsStoreTest, QuotaSetDuringTransactionAppliesAtCommit) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  auto tx = store_.TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/a", "v", *tx).ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/b", "v", *tx).ok());
  store_.set_node_quota(2);
  EXPECT_EQ(store_.TransactionEnd(guest_, *tx, /*commit=*/true).code(),
            StatusCode::kAborted);
  EXPECT_FALSE(store_.Exists(manager_, "/g/a"));
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 1u);
}

TEST_F(XsStoreTest, TransactionReadsSeeSnapshot) {
  ASSERT_TRUE(store_.Write(manager_, "/k", "old").ok());
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/k", "new").ok());
  EXPECT_EQ(*store_.Read(manager_, "/k", *tx), "old");
}

TEST_F(XsStoreTest, ForeignTransactionEndDenied) {
  auto tx = store_.TransactionStart(guest_);
  EXPECT_EQ(store_.TransactionEnd(other_, *tx, true).code(),
            StatusCode::kNotFound);
}

// Ids are sequential, so a guest can name another guest's transaction.
// Every transactional op must answer a foreign id exactly as an id never
// issued, and leave the transaction as its owner left it.
TEST_F(XsStoreTest, ForeignTransactionIdIsUnknownToEveryOp) {
  for (const DomainId owner : {guest_, other_}) {
    const std::string dir = StrFormat("/d%u", owner.value());
    ASSERT_TRUE(store_.Mkdir(manager_, dir).ok());
    XsNodePerms perms;
    perms.owner = owner;
    ASSERT_TRUE(store_.SetPerms(manager_, dir, perms).ok());
  }
  auto tx = store_.TransactionStart(guest_);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(store_.Write(guest_, "/d5/mine", "ok", *tx).ok());
  const XsStore::TxId never_issued = *tx + 100;
  for (const XsStore::TxId id : {*tx, never_issued}) {
    SCOPED_TRACE(testing::Message() << "tx " << id);
    const Status write = store_.Write(other_, "/d6/planted", "evil", id);
    EXPECT_EQ(write.code(), StatusCode::kNotFound);
    EXPECT_EQ(write.message(), "no such transaction");
    EXPECT_EQ(store_.Read(other_, "/d6", id).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(store_.Mkdir(other_, "/d6/dir", id).code(),
              StatusCode::kNotFound);
    EXPECT_EQ(store_.Remove(other_, "/d6", id).code(), StatusCode::kNotFound);
    EXPECT_EQ(store_.List(other_, "/d6", id).status().code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(store_.Exists(other_, "/d6", id));
    EXPECT_EQ(store_.TransactionEnd(other_, id, /*commit=*/false).code(),
              StatusCode::kNotFound);
  }
  ASSERT_TRUE(store_.TransactionEnd(guest_, *tx, /*commit=*/true).ok());
  EXPECT_EQ(*store_.Read(manager_, "/d5/mine"), "ok");
  EXPECT_FALSE(store_.Exists(manager_, "/d6/planted"));
  EXPECT_FALSE(store_.Exists(manager_, "/d6/dir"));
  EXPECT_TRUE(store_.Exists(manager_, "/d6"));
}

TEST_F(XsStoreTest, CommittedTransactionFiresWatches) {
  int fires = 0;
  ASSERT_TRUE(store_
                  .Watch(manager_, "/t", "tok",
                         [&](const XsWatchEvent&) { ++fires; })
                  .ok());
  auto tx = store_.TransactionStart(manager_);
  ASSERT_TRUE(store_.Write(manager_, "/t/a", "1", *tx).ok());
  EXPECT_EQ(fires, 1);  // nothing fired inside the transaction
  ASSERT_TRUE(store_.TransactionEnd(manager_, *tx, true).ok());
  EXPECT_EQ(fires, 2);
}

// --- Serialization (XenStore-State protocol) ---

TEST_F(XsStoreTest, SerializeRestoreRoundTrip) {
  ASSERT_TRUE(store_.Write(manager_, "/a/b", "1").ok());
  ASSERT_TRUE(store_.Write(manager_, "/a/c", "2").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  perms.acl[other_] = XsPerm::kRead;
  ASSERT_TRUE(store_.SetPerms(manager_, "/a/b", perms).ok());

  auto dump = store_.Serialize();
  XsStore fresh(&obs_);
  fresh.AddManagerDomain(manager_);
  fresh.Restore(dump);
  EXPECT_EQ(*fresh.Read(manager_, "/a/b"), "1");
  EXPECT_EQ(*fresh.Read(manager_, "/a/c"), "2");
  auto restored_perms = fresh.GetPerms(manager_, "/a/b");
  ASSERT_TRUE(restored_perms.ok());
  EXPECT_EQ(restored_perms->owner, guest_);
  EXPECT_EQ(restored_perms->acl.at(other_), XsPerm::kRead);
  EXPECT_EQ(fresh.NodeCount(), store_.NodeCount());
}

TEST_F(XsStoreTest, SerializeRestoreRoundTripUnderCowSharing) {
  ASSERT_TRUE(store_.Write(manager_, "/a/b", "1").ok());
  ASSERT_TRUE(store_.Write(manager_, "/a/c", "2").ok());
  // Open transactions + a snapshot share the tree; Serialize must dump the
  // live view and Restore must not disturb the sharers.
  auto tx = store_.TransactionStart(manager_);
  XsStore::Snapshot snapshot = store_.TakeSnapshot();
  ASSERT_TRUE(store_.Write(manager_, "/a/b", "tx-only", *tx).ok());
  ASSERT_TRUE(store_.Write(manager_, "/live", "yes").ok());

  auto dump = store_.Serialize();
  XsStore fresh(&obs_);
  fresh.AddManagerDomain(manager_);
  fresh.Restore(dump);
  EXPECT_EQ(*fresh.Read(manager_, "/a/b"), "1");
  EXPECT_EQ(*fresh.Read(manager_, "/live"), "yes");
  EXPECT_EQ(fresh.NodeCount(), store_.NodeCount());
  // The flat dumps agree entry by entry.
  auto fresh_dump = fresh.Serialize();
  ASSERT_EQ(fresh_dump.size(), dump.size());
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(fresh_dump[i].path, dump[i].path);
    EXPECT_EQ(fresh_dump[i].value, dump[i].value);
    EXPECT_EQ(fresh_dump[i].perms.owner, dump[i].perms.owner);
  }
  // The transaction still sees its own view, and mutating the restored
  // store cannot reach back into the original's shared nodes.
  EXPECT_EQ(*store_.Read(manager_, "/a/b", *tx), "tx-only");
  ASSERT_TRUE(fresh.Write(manager_, "/a/b", "mutated-copy").ok());
  EXPECT_EQ(*store_.Read(manager_, "/a/b"), "1");
  (void)store_.TransactionEnd(manager_, *tx, false);
  (void)snapshot;
}

TEST_F(XsStoreTest, RestoreKeepsNodesChownedAboveTheQuota) {
  // A manager chown is not quota-checked, so a guest can own more nodes
  // than the quota. Restoring shipped state is not a guest request: every
  // one of those nodes must come back.
  store_.set_node_quota(2);
  XsNodePerms perms;
  perms.owner = guest_;
  for (const char* path : {"/g/a", "/g/b", "/g/c"}) {
    ASSERT_TRUE(store_.Write(manager_, path, "v").ok());
    ASSERT_TRUE(store_.SetPerms(manager_, path, perms).ok());
  }
  ASSERT_EQ(store_.NodeCount(), 4u);
  ASSERT_EQ(store_.NodesOwnedBy(guest_), 3u);

  XsStore fresh(&obs_);
  fresh.AddManagerDomain(manager_);
  fresh.set_node_quota(2);
  fresh.Restore(store_.Serialize());
  EXPECT_EQ(fresh.NodeCount(), 4u);
  EXPECT_EQ(fresh.NodesOwnedBy(guest_), 3u);
  EXPECT_TRUE(fresh.Exists(guest_, "/g/c"));

  store_.Restore(store_.Serialize());
  EXPECT_EQ(store_.NodeCount(), 4u);
  EXPECT_EQ(store_.NodesOwnedBy(guest_), 3u);
  EXPECT_TRUE(store_.Exists(guest_, "/g/c"));
}

TEST_F(XsStoreTest, SnapshotRollbackRestoresContentsAndCounters) {
  ASSERT_TRUE(store_.Mkdir(manager_, "/g").ok());
  XsNodePerms perms;
  perms.owner = guest_;
  ASSERT_TRUE(store_.SetPerms(manager_, "/g", perms).ok());
  ASSERT_TRUE(store_.Write(guest_, "/g/keep", "v").ok());
  const std::size_t owned = store_.NodesOwnedBy(guest_);
  const std::size_t nodes = store_.NodeCount();

  XsStore::Snapshot snapshot = store_.TakeSnapshot();
  ASSERT_TRUE(store_.Write(guest_, "/g/scratch/a", "x").ok());
  ASSERT_TRUE(store_.Remove(guest_, "/g/keep").ok());
  store_.RestoreSnapshot(snapshot);

  EXPECT_EQ(*store_.Read(guest_, "/g/keep"), "v");
  EXPECT_FALSE(store_.Exists(guest_, "/g/scratch"));
  EXPECT_EQ(store_.NodesOwnedBy(guest_), owned);
  EXPECT_EQ(store_.NodeCount(), nodes);
}

TEST_F(XsStoreTest, RestoringCurrentSnapshotIsNoOp) {
  ASSERT_TRUE(store_.Write(manager_, "/k", "v").ok());
  XsStore::Snapshot snapshot = store_.TakeSnapshot();
  const std::uint64_t gen = store_.generation();
  store_.RestoreSnapshot(snapshot);  // nothing changed since the checkpoint
  EXPECT_EQ(store_.generation(), gen);
  EXPECT_EQ(*store_.Read(manager_, "/k"), "v");
}

// Copy-on-write work of one transactional write and its commit, below a
// directory of `siblings` children.
std::uint64_t TransactionalWriteCopies(int siblings) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  for (int i = 0; i < siblings; ++i) {
    EXPECT_TRUE(store.Mkdir(mgr, StrFormat("/local/domain/%d", i)).ok());
  }
  const std::uint64_t before = store.cow_copies();
  auto tx = store.TransactionStart(mgr);
  const std::string key = StrFormat("/local/domain/%d/txkey", siblings / 2);
  EXPECT_TRUE(store.Write(mgr, key, "v", *tx).ok());
  EXPECT_TRUE(store.TransactionEnd(mgr, *tx, /*commit=*/true).ok());
  EXPECT_EQ(*store.Read(mgr, key), "v");
  return store.cow_copies() - before;
}

// A shared directory is copied one search path at a time, O(log fan-out)
// entries, not one entry per sibling: 10^3 times the siblings may cost at
// most 3 times the copies.
TEST(XsStoreCopyTest, TransactionalWriteCopiesLogFanOut) {
  const std::uint64_t narrow = TransactionalWriteCopies(10);
  const std::uint64_t wide = TransactionalWriteCopies(10000);
  EXPECT_GT(narrow, 0u);
  EXPECT_LE(wide, 3 * narrow) << "10 siblings: " << narrow
                              << " copies; 10^4 siblings: " << wide;
}

TEST(XsStoreCopyTest, WriteWithNothingSharedCopiesNothing) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Write(mgr, StrFormat("/local/domain/%d/k", i), "v").ok());
  }
  ASSERT_TRUE(store.Write(mgr, "/local/domain/500/k", "w").ok());
  ASSERT_TRUE(store.Remove(mgr, "/local/domain/7").ok());
  XsNodePerms perms;
  perms.owner = DomainId(9);
  ASSERT_TRUE(store.SetPerms(mgr, "/local/domain/9", perms).ok());
  EXPECT_EQ(store.cow_copies(), 0u);
  // Once a snapshot shares the tree, the next write copies its path, and
  // the write after that, with the path exclusive again, copies nothing.
  XsStore::Snapshot snapshot = store.TakeSnapshot();
  ASSERT_TRUE(store.Write(mgr, "/local/domain/500/k", "x").ok());
  const std::uint64_t after_snapshot = store.cow_copies();
  EXPECT_GT(after_snapshot, 0u);
  ASSERT_TRUE(store.Write(mgr, "/local/domain/500/k", "y").ok());
  EXPECT_EQ(store.cow_copies(), after_snapshot);
  store.RestoreSnapshot(snapshot);
  EXPECT_EQ(*store.Read(mgr, "/local/domain/500/k"), "w");
}

// Children-map entries visited by one Read of `key` below a directory of
// `siblings` children.
std::uint64_t ReadVisits(int siblings) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  for (int i = 0; i < siblings; ++i) {
    EXPECT_TRUE(store.Mkdir(mgr, StrFormat("/local/domain/%d", i)).ok());
  }
  const std::string key = StrFormat("/local/domain/%d/key", siblings / 2);
  EXPECT_TRUE(store.Write(mgr, key, "v").ok());
  const std::uint64_t before = store.entries_visited();
  EXPECT_EQ(*store.Read(mgr, key), "v");
  return store.entries_visited() - before;
}

// A path walk steps on O(log fan-out) entries per segment: 10^3 times the
// siblings may cost at most 3 times the visits.
TEST(XsStoreVisitTest, ReadVisitsLogFanOut) {
  const std::uint64_t narrow = ReadVisits(10);
  const std::uint64_t wide = ReadVisits(10000);
  EXPECT_GT(narrow, 0u);
  EXPECT_LE(wide, 3 * narrow) << "10 siblings: " << narrow
                              << " visits; 10^4 siblings: " << wide;
}

// A write resolves its path once: overwriting an existing node walks no
// more of the tree than reading it, whether or not a transaction shares
// the path (then the walk copies it on the way down).
TEST(XsStoreVisitTest, WriteToAnExistingNodeVisitsNoMoreThanARead) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Write(mgr, StrFormat("/local/domain/%d/k", i), "v").ok());
  }
  const std::string key = "/local/domain/500/k";
  std::uint64_t before = store.entries_visited();
  ASSERT_TRUE(store.Read(mgr, key).ok());
  const std::uint64_t read = store.entries_visited() - before;
  EXPECT_GT(read, 0u);
  for (bool shared : {false, true}) {
    XsStore::Snapshot snapshot;
    if (shared) {
      snapshot = store.TakeSnapshot();
    }
    before = store.entries_visited();
    ASSERT_TRUE(store.Write(mgr, key, shared ? "s" : "w").ok());
    EXPECT_LE(store.entries_visited() - before, read) << "shared: " << shared;
  }
  EXPECT_EQ(*store.Read(mgr, key), "s");
}

// Nothing committed while a transaction ran: its commit adopts the
// transaction's tree and walks no path at all.
TEST(XsStoreVisitTest, UnracedCommitVisitsNothing) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(store.Write(mgr, StrFormat("/local/domain/%d/k", i), "v").ok());
  }
  auto tx = store.TransactionStart(mgr);
  ASSERT_TRUE(store.Write(mgr, "/local/domain/7/k", "w", *tx).ok());
  ASSERT_TRUE(store.Write(mgr, "/local/domain/8/new/leaf", "n", *tx).ok());
  ASSERT_TRUE(store.Mkdir(mgr, "/local/domain/9/dir", *tx).ok());
  ASSERT_TRUE(store.Remove(mgr, "/local/domain/10", *tx).ok());
  const std::uint64_t before = store.entries_visited();
  ASSERT_TRUE(store.TransactionEnd(mgr, *tx, /*commit=*/true).ok());
  EXPECT_EQ(store.entries_visited(), before);
  EXPECT_EQ(*store.Read(mgr, "/local/domain/7/k"), "w");
  EXPECT_EQ(*store.Read(mgr, "/local/domain/8/new/leaf"), "n");
  EXPECT_TRUE(store.Exists(mgr, "/local/domain/9/dir"));
  EXPECT_FALSE(store.Exists(mgr, "/local/domain/10"));
}

// What one seeded transaction script left behind, committed either with
// nothing racing it (the store adopts the transaction's tree) or after a
// disjoint live write (the commit replays the ops).
struct CommitOutcome {
  std::vector<StatusCode> op_codes;  // the script's ops, in order
  Status commit;
  std::uint64_t commit_visits = 0;  // entries the commit itself walked
  std::vector<XsStore::FlatNode> contents;  // without the disjoint node
  std::map<DomainId, std::size_t> owned;
  std::size_t nodes = 0;                 // without the disjoint node
  std::vector<std::string> events;  // "path token" fired by the commit
};

constexpr std::string_view kDisjoint = "/elsewhere";

CommitOutcome RunTransactionScript(std::uint64_t seed, bool raced) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  const DomainId guest(7);
  const DomainId neighbour(8);
  store.AddManagerDomain(mgr);
  store.set_node_quota(6);
  XsNodePerms home;
  home.owner = guest;
  EXPECT_TRUE(store.Mkdir(mgr, "/h").ok());
  EXPECT_TRUE(store.SetPerms(mgr, "/h", home).ok());
  XsNodePerms other = home;
  other.owner = neighbour;
  EXPECT_TRUE(store.Mkdir(mgr, "/n").ok());
  EXPECT_TRUE(store.SetPerms(mgr, "/n", other).ok());
  EXPECT_TRUE(store.Write(guest, "/h/k0", "a").ok());
  EXPECT_TRUE(store.Write(guest, "/h/d/k1", "b").ok());
  EXPECT_TRUE(store.Write(mgr, "/h/locked", "m").ok());  // the manager's
  CommitOutcome out;
  for (const char* path : {"/", "/h", "/h/d/k1"}) {
    EXPECT_TRUE(store
                    .Watch(mgr, path, path,
                           [&out](const XsWatchEvent& event) {
                             out.events.push_back(event.path + " " +
                                                  event.token);
                           })
                    .ok());
  }

  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 11;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const std::vector<std::string> keys = {"/h/k0",   "/h/k2",   "/h/d",
                                         "/h/d/k1", "/h/d/e/f", "/h/x/y"};
  auto tx = store.TransactionStart(guest);
  EXPECT_TRUE(tx.ok());
  // Each script writes an existing key first, then mixes seeded writes,
  // mkdirs, removes and reads with one op refused for permission (a
  // manager's node), one for quota (six new nodes beside the guest's own
  // /h) and one for a missing node, at seeded places.
  std::vector<int> kinds = {0, 4, 5, 6};
  for (int i = 0; i < 10; ++i) {
    kinds.insert(kinds.begin() + 1 + next() % kinds.size(), next() % 4);
  }
  auto run = [&](int kind) -> Status {
    const std::string& key = keys[next() % keys.size()];
    const std::string value = StrFormat("t%u", static_cast<unsigned>(next()));
    switch (kind) {
      case 0:
        return store.Write(guest, key, value, *tx);
      case 1:
        return store.Mkdir(guest, key, *tx);
      case 2:
        return store.Remove(guest, key, *tx);
      case 3:
        return store.Read(guest, key, *tx).status();
      case 4:
        return store.Write(guest, "/h/locked", value, *tx);
      case 5:
        return store.Write(guest, "/h/q/r/s/t/u/v", value, *tx);
      default:
        return store.Remove(guest, "/h/missing/leaf", *tx);
    }
  };
  out.op_codes.push_back(store.Write(guest, "/h/k0", "first", *tx).code());
  for (int kind : kinds) {
    out.op_codes.push_back(run(kind).code());
  }
  if (raced) {
    EXPECT_TRUE(store.Write(mgr, StrFormat("%s/x", kDisjoint.data()), "v")
                    .ok());
  }
  out.events.clear();
  const std::uint64_t visits = store.entries_visited();
  out.commit = store.TransactionEnd(guest, *tx, /*commit=*/true);
  out.commit_visits = store.entries_visited() - visits;
  for (XsStore::FlatNode& node : store.Serialize()) {
    if (!PathHasPrefix(node.path, kDisjoint)) {
      out.contents.push_back(std::move(node));
    }
  }
  for (DomainId owner : {mgr, guest, neighbour}) {
    out.owned[owner] = store.NodesOwnedBy(owner);
  }
  out.nodes = store.NodeCount() - (raced ? 2 : 0);
  if (raced) {
    out.owned[mgr] -= 2;  // the disjoint directory and its key
  }
  return out;
}

class XsCommitAdoptionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XsCommitAdoptionTest, AdoptedAndReplayedCommitsAgree) {
  const CommitOutcome adopted = RunTransactionScript(GetParam(), false);
  const CommitOutcome replayed = RunTransactionScript(GetParam(), true);
  // Every refusal kind ran, and the two scripts saw the same store.
  for (StatusCode code : {StatusCode::kPermissionDenied,
                          StatusCode::kResourceExhausted,
                          StatusCode::kNotFound}) {
    EXPECT_NE(std::find(adopted.op_codes.begin(), adopted.op_codes.end(),
                        code),
              adopted.op_codes.end());
  }
  EXPECT_EQ(adopted.op_codes, replayed.op_codes);
  ASSERT_TRUE(adopted.commit.ok()) << adopted.commit;
  ASSERT_TRUE(replayed.commit.ok()) << replayed.commit;
  // The unraced commit adopted (it walked nothing); the raced one replayed.
  EXPECT_EQ(adopted.commit_visits, 0u);
  EXPECT_GT(replayed.commit_visits, 0u);
  ASSERT_EQ(adopted.contents.size(), replayed.contents.size());
  for (std::size_t i = 0; i < adopted.contents.size(); ++i) {
    const XsStore::FlatNode& a = adopted.contents[i];
    const XsStore::FlatNode& r = replayed.contents[i];
    EXPECT_EQ(a.path, r.path);
    EXPECT_EQ(a.value, r.value) << a.path;
    EXPECT_EQ(a.perms.owner, r.perms.owner) << a.path;
    EXPECT_EQ(a.perms.acl, r.perms.acl) << a.path;
  }
  EXPECT_EQ(adopted.owned, replayed.owned);
  EXPECT_EQ(adopted.nodes, replayed.nodes);
  EXPECT_EQ(adopted.events, replayed.events);
  EXPECT_FALSE(adopted.events.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, XsCommitAdoptionTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// CowMap against std::map. Several live versions are kept: a version is
// copied, then each copy is mutated on its own, and after every step each
// version must still equal its own std::map twin, with AVL height.
class CowMapTest : public ::testing::TestWithParam<int> {};

TEST_P(CowMapTest, VersionsMatchStdMap) {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL + GetParam();
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    // Some keys outgrow the small-string buffer.
    keys.push_back(StrFormat(i % 3 == 0 ? "node-name-past-sso-%03d" : "k%03d",
                             i));
  }
  std::sort(keys.begin(), keys.end());
  if (GetParam() == 1) {
    std::reverse(keys.begin(), keys.end());
  } else if (GetParam() == 2) {
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[next() % (i + 1)]);
    }
  }
  struct Version {
    CowMap<int> tree;
    std::map<std::string, int> twin;
  };
  std::vector<Version> versions(1);
  CowWork work;
  std::size_t inserted = 0;  // keys inserted in order, into some version
  for (int step = 0; step < 2000; ++step) {
    Version& v = versions[next() % versions.size()];
    const std::string& key = keys[next() % keys.size()];
    const int value = static_cast<int>(next() % 1000);
    switch (next() % 8) {
      case 0:
      case 1:
      case 2: {  // insert the next key in the chosen order
        const std::string& in_order = keys[inserted++ % keys.size()];
        if (v.twin.count(in_order) == 0) {
          v.tree.Insert(in_order, value, &work);
          v.twin[in_order] = value;
        }
        break;
      }
      case 3:
      case 4:
        EXPECT_EQ(v.tree.Erase(key, &work), v.twin.erase(key) == 1);
        break;
      case 5: {
        int* found = v.tree.FindMutable(key, &work);
        ASSERT_EQ(found != nullptr, v.twin.count(key) == 1) << key;
        if (found != nullptr) {
          *found = value;
          v.twin[key] = value;
        }
        break;
      }
      case 6: {  // a lookup steps on at most one entry per level
        const std::uint64_t visits = work.visits;
        const int* found = v.tree.Find(key, &work);
        ASSERT_EQ(found != nullptr, v.twin.count(key) == 1) << key;
        EXPECT_LE(work.visits - visits,
                  static_cast<std::uint64_t>(v.tree.height()));
        if (found != nullptr) {
          EXPECT_EQ(*found, v.twin[key]);
        }
        break;
      }
      case 7:  // fork: copy a version over another slot, or add one
        if (versions.size() < 5) {
          versions.push_back(v);
        } else {
          versions[next() % versions.size()] = Version(v);
        }
        break;
    }
    for (const Version& each : versions) {
      auto twin = each.twin.begin();
      bool same = true;
      each.tree.ForEach([&](const std::string& k, int val) {
        same = same && twin != each.twin.end() && twin->first == k &&
               twin->second == val;
        ++twin;
      });
      ASSERT_TRUE(same && twin == each.twin.end()) << "step " << step;
      ASSERT_EQ(each.tree.size(), each.twin.size());
      ASSERT_LE(each.tree.height(),
                1.4405 * std::log2(each.tree.size() + 2.0) - 0.3277)
          << "step " << step;
    }
  }
  EXPECT_GT(work.copies, 0u);
  EXPECT_GT(work.visits, 0u);
}

// Keys arrive in sorted (0), reverse-sorted (1) or seeded random (2) order.
INSTANTIATE_TEST_SUITE_P(KeyOrders, CowMapTest, ::testing::Values(0, 1, 2));

// The incremental owner counters must equal a fresh tally of the contents.
::testing::AssertionResult CountersMatchContents(
    const XsStore& store, const std::vector<DomainId>& owners) {
  const std::vector<XsStore::FlatNode> flat = store.Serialize();
  std::map<DomainId, std::size_t> tally;
  for (const auto& node : flat) {
    ++tally[node.perms.owner];
  }
  if (store.NodeCount() != flat.size()) {
    return ::testing::AssertionFailure()
           << "NodeCount " << store.NodeCount() << ", tally " << flat.size();
  }
  for (DomainId owner : owners) {
    if (store.NodesOwnedBy(owner) != tally[owner]) {
      return ::testing::AssertionFailure()
             << "dom" << owner.value() << " owns "
             << store.NodesOwnedBy(owner) << ", tally " << tally[owner];
    }
  }
  return ::testing::AssertionSuccess();
}

// Property: a random operation sequence applied to both XsStore and a flat
// reference map must agree on every readable value, and after every step
// the owner counters must match a fresh tally -- through manager chowns,
// subtree removes, snapshot rollbacks, and guest commits whose replay fails
// on the node quota.
class XsStoreModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XsStoreModelTest, AgreesWithReferenceModel) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  const std::vector<DomainId> owners = {mgr, DomainId(7), DomainId(8)};
  store.AddManagerDomain(mgr);
  store.set_node_quota(4);
  std::map<std::string, std::string> model;
  std::uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 3;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 32;
  };
  const std::vector<std::string> paths = {"/a", "/a/b", "/a/b/c", "/d",
                                          "/d/e", "/f/g/h"};
  auto model_write = [&model](const std::string& path,
                              const std::string& value) {
    model[path] = value;
    // Intermediate nodes materialize with empty values.
    std::string prefix;
    for (std::string_view segment : PathSegments(path)) {
      if (!prefix.empty()) {
        model.try_emplace(prefix, "");
      }
      prefix.append("/").append(segment);
    }
  };
  auto model_remove = [&model](const std::string& path) {
    for (auto it = model.begin(); it != model.end();) {
      if (PathHasPrefix(it->first, path)) {
        it = model.erase(it);
      } else {
        ++it;
      }
    }
  };
  // Each guest owns a home directory, disjoint from `paths`, where its
  // transactions create and remove keys.
  const std::vector<std::string> homes = {"/h7", "/h8"};
  for (std::size_t g = 0; g < homes.size(); ++g) {
    XsNodePerms perms;
    perms.owner = owners[g + 1];
    ASSERT_TRUE(store.Mkdir(mgr, homes[g]).ok());
    ASSERT_TRUE(store.SetPerms(mgr, homes[g], perms).ok());
    model_write(homes[g], "");
  }
  XsStore::Snapshot snapshot;
  std::map<std::string, std::string> snapshot_model;
  int replay_failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string& path = paths[next() % paths.size()];
    switch (next() % 6) {
      case 0: {
        const std::string value =
            StrFormat("v%u", static_cast<unsigned>(next() % 100));
        if (store.Write(mgr, path, value).ok()) {
          model_write(path, value);
        }
        break;
      }
      case 1: {
        auto value = store.Read(mgr, path);
        if (model.count(path) > 0) {
          ASSERT_TRUE(value.ok()) << path;
          EXPECT_EQ(*value, model[path]) << path;
        } else {
          EXPECT_FALSE(value.ok()) << path;
        }
        break;
      }
      case 2: {
        if (store.Remove(mgr, path).ok()) {
          model_remove(path);
        }
        break;
      }
      case 3: {  // manager chown (not quota-checked)
        XsNodePerms perms;
        perms.owner = owners[next() % owners.size()];
        (void)store.SetPerms(mgr, path, perms);
        break;
      }
      case 4: {  // take a snapshot, or roll back to the one held
        if (!snapshot.valid()) {
          snapshot = store.TakeSnapshot();
          snapshot_model = model;
        } else {
          store.RestoreSnapshot(snapshot);
          model = snapshot_model;
          snapshot = XsStore::Snapshot();
        }
        break;
      }
      case 5: {  // guest commit; a manager chown may fill its quota first
        const std::size_t g = next() % homes.size();
        const DomainId guest = owners[g + 1];
        auto tx = store.TransactionStart(guest);
        ASSERT_TRUE(tx.ok());
        // Stage one or two key updates in the guest's home: remove a key
        // the transaction sees, or write one.
        struct Staged {
          std::string key;
          std::string value;
          bool remove;
        };
        std::vector<Staged> staged;
        bool ok = true;
        for (std::uint64_t n = 1 + next() % 2; n > 0 && ok; --n) {
          Staged op{StrFormat("%s/k%u", homes[g].c_str(),
                              static_cast<unsigned>(next() % 3)),
                    StrFormat("t%u", static_cast<unsigned>(next() % 100)),
                    false};
          op.remove = store.Exists(guest, op.key, *tx) && next() % 2 == 0;
          ok = op.remove ? store.Remove(guest, op.key, *tx).ok()
                         : store.Write(guest, op.key, op.value, *tx).ok();
          staged.push_back(op);
        }
        if (next() % 2 == 0) {
          XsNodePerms perms;
          perms.owner = guest;
          (void)store.SetPerms(mgr, path, perms);
        }
        const Status end = store.TransactionEnd(guest, *tx, ok);
        if (end.ok() && ok) {
          for (const Staged& op : staged) {
            if (op.remove) {
              model_remove(op.key);
            } else {
              model_write(op.key, op.value);
            }
          }
        }
        if (end.message().find("replay failed") != std::string::npos) {
          ++replay_failures;
        }
        break;
      }
    }
    ASSERT_TRUE(CountersMatchContents(store, owners)) << "step " << i;
  }
  EXPECT_GT(replay_failures, 0);
}

std::map<std::string, std::string> ContentsOf(const XsStore& store) {
  std::map<std::string, std::string> contents;
  for (const XsStore::FlatNode& node : store.Serialize()) {
    contents.emplace(node.path, node.value);
  }
  return contents;
}

// The model check on one directory of hundreds of siblings, so its
// children tree rebalances while other versions share it: a snapshot and
// up to two open transactions are held while live writes and removes land,
// and each must still read as the model copy taken when it began.
TEST_P(XsStoreModelTest, WideDirectoryVersionsStayIsolated) {
  Obs obs;
  XsStore store(&obs);
  const DomainId mgr(0);
  store.AddManagerDomain(mgr);
  std::uint64_t state = GetParam() * 0x9E3779B97F4A7C15ULL + 5;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 32;
  };
  auto key = [&next] {
    const unsigned i = static_cast<unsigned>(next() % 600);
    return StrFormat(i % 2 == 0 ? "/wide/sibling-past-sso-%u" : "/wide/s%u", i);
  };
  ASSERT_TRUE(store.Mkdir(mgr, "/wide").ok());
  std::map<std::string, std::string> model = {{"/wide", ""}};
  struct OpenTx {
    XsStore::TxId id;
    std::map<std::string, std::string> view;    // model at start + own writes
    std::map<std::string, std::string> writes;  // to apply if it commits
  };
  std::vector<OpenTx> txs;
  XsStore::Snapshot snapshot;
  std::map<std::string, std::string> snapshot_model;
  int commits = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string path = key();
    const std::string value = StrFormat("v%d", i);
    const std::uint64_t pick = next() % 20;
    if (pick < 8) {
      ASSERT_TRUE(store.Write(mgr, path, value).ok());
      model[path] = value;
    } else if (pick < 12) {
      EXPECT_EQ(store.Remove(mgr, path).ok(), model.erase(path) == 1);
    } else if (pick < 14 && txs.size() < 2) {
      auto tx = store.TransactionStart(mgr);
      ASSERT_TRUE(tx.ok());
      txs.push_back(OpenTx{*tx, model, {}});
    } else if (pick < 17 && !txs.empty()) {
      OpenTx& tx = txs[next() % txs.size()];
      if (pick == 14) {
        ASSERT_TRUE(store.Write(mgr, path, value, tx.id).ok());
        tx.view[path] = tx.writes[path] = value;
      } else {
        auto read = store.Read(mgr, path, tx.id);
        ASSERT_EQ(read.ok(), tx.view.count(path) == 1) << path;
        if (read.ok()) {
          EXPECT_EQ(*read, tx.view[path]) << path;
        }
      }
    } else if (pick == 17 && !txs.empty()) {
      const std::size_t t = next() % txs.size();
      if (store.TransactionEnd(mgr, txs[t].id, /*commit=*/true).ok()) {
        ++commits;
        for (const auto& [written, val] : txs[t].writes) {
          model[written] = val;
        }
      }
      txs.erase(txs.begin() + static_cast<std::ptrdiff_t>(t));
    } else if (pick == 18) {
      if (!snapshot.valid()) {
        snapshot = store.TakeSnapshot();
        snapshot_model = model;
      } else {
        store.RestoreSnapshot(snapshot);
        model = snapshot_model;
        snapshot = XsStore::Snapshot();
      }
    }
    auto read = store.Read(mgr, path);
    ASSERT_EQ(read.ok(), model.count(path) == 1) << path;
    if (read.ok()) {
      EXPECT_EQ(*read, model[path]) << path;
    }
    if (i % 20 == 0 || pick == 18) {
      ASSERT_EQ(ContentsOf(store), model) << "step " << i;
    }
  }
  for (const OpenTx& tx : txs) {
    for (const auto& [path, value] : tx.view) {
      EXPECT_EQ(*store.Read(mgr, path, tx.id), value) << path;
    }
  }
  EXPECT_GT(commits, 0);
  EXPECT_GT(model.size(), 150u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XsStoreModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace xoar
