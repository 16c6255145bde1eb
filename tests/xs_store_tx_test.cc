// XsStore transactions and state shipping (Serialize/Restore).
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
  // Two open transactions share the tree, one of them writing; Serialize
  // must dump the live view and Restore must not disturb the sharers.
  auto tx = store_.TransactionStart(manager_);
  auto held = store_.TransactionStart(manager_);
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
  EXPECT_EQ(*store_.Read(manager_, "/a/b", *held), "1");
  EXPECT_FALSE(store_.Exists(manager_, "/live", *held));
  (void)store_.TransactionEnd(manager_, *tx, false);
  (void)store_.TransactionEnd(manager_, *held, false);
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

}  // namespace
}  // namespace xoar
