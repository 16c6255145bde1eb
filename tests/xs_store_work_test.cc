// XsStore work counters: entries copied and visited per operation, and
// adopted commits checked against replayed ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

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
  // Once a transaction shares the tree, the next write copies its path,
  // and the write after that, with the path exclusive again, copies
  // nothing.
  auto tx = store.TransactionStart(mgr);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(store.Write(mgr, "/local/domain/500/k", "x").ok());
  const std::uint64_t after_sharing = store.cow_copies();
  EXPECT_GT(after_sharing, 0u);
  ASSERT_TRUE(store.Write(mgr, "/local/domain/500/k", "y").ok());
  EXPECT_EQ(store.cow_copies(), after_sharing);
  EXPECT_EQ(*store.Read(mgr, "/local/domain/500/k", *tx), "w");
  ASSERT_TRUE(store.TransactionEnd(mgr, *tx, /*commit=*/false).ok());
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
    StatusOr<XsStore::TxId> tx = NotFoundError("not shared");
    if (shared) {
      tx = store.TransactionStart(mgr);
      ASSERT_TRUE(tx.ok());
    }
    before = store.entries_visited();
    ASSERT_TRUE(store.Write(mgr, key, shared ? "s" : "w").ok());
    EXPECT_LE(store.entries_visited() - before, read) << "shared: " << shared;
    if (tx.ok()) {
      ASSERT_TRUE(store.TransactionEnd(mgr, *tx, /*commit=*/false).ok());
    }
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

}  // namespace
}  // namespace xoar
