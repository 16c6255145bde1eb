// CowMap and XsStore checked against std::map reference models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/cow_map.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

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
// subtree removes, and guest commits whose replay fails on the node quota.
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
  int replay_failures = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string& path = paths[next() % paths.size()];
    switch (next() % 5) {
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
      case 4: {  // guest commit; a manager chown may fill its quota first
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
// children tree rebalances while other versions share it: a read-only
// transaction and up to two writing ones are held while live writes and
// removes land, and each must still read as the model copy taken when it
// began.
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
  std::optional<OpenTx> held;  // reads only, then aborts
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
      if (!held.has_value()) {
        auto tx = store.TransactionStart(mgr);
        ASSERT_TRUE(tx.ok());
        held = OpenTx{*tx, model, {}};
      } else {
        for (const auto& [held_path, held_value] : held->view) {
          EXPECT_EQ(*store.Read(mgr, held_path, held->id), held_value)
              << held_path;
        }
        auto names = store.List(mgr, "/wide", held->id);
        ASSERT_TRUE(names.ok());
        EXPECT_EQ(names->size() + 1, held->view.size());  // "/wide" itself
        ASSERT_TRUE(store.TransactionEnd(mgr, held->id, false).ok());
        held.reset();
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
