// XsStore basics: reads and writes, paths, permissions, quota, watches.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
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

}  // namespace
}  // namespace xoar
