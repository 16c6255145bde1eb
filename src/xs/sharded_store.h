// Path-prefix sharding of XenStore-State (SCALING.md).
//
// The paper's State/Logic split (§5.1) makes XenStore-State a dumb
// restartable KV — exactly the shape that partitions cleanly. This facade
// splits the store into N independent XsStore partitions keyed by path
// prefix: `/local/domain/<id>/...` routes to shard `id % N`, everything
// else lives on shard 0. Each shard is an independently microrebootable
// COW store; a shard restart only loses the watches and transactions of
// the tenants whose domain directories hash to it, which bounds the blast
// radius of a XenStore-State microreboot to 1/N of the guests on a
// densely packed host.
//
// Routing invariants (enforced here, documented in SCALING.md):
//  - Per-tenant paths (/local/domain/<id> and below) live wholly on one
//    shard, so every per-guest operation touches exactly one partition.
//  - The spanning prefixes "/", "/local" and "/local/domain" exist on
//    every shard: mutations on them fan out so each partition keeps a
//    complete ancestor chain; List() merges children across shards;
//    reads resolve on shard 0.
//  - Transactions live on the caller's home shard (the shard its own
//    /local/domain/<id> directory routes to) — snapshot isolation is
//    per-partition, which is sufficient because a guest's transactional
//    traffic is confined to its own subtree.
//
// The facade also holds the shard gate: while a shard's XenStore-State
// domain restarts, every request that needs that shard is refused
// UNAVAILABLE and the other shards serve on.
//
// With shard_count == 1 the facade is behavior-identical to a bare
// XsStore, which keeps the stock (monolithic) platform unchanged.
#ifndef XOAR_SRC_XS_SHARDED_STORE_H_
#define XOAR_SRC_XS_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/obs/obs.h"
#include "src/xs/store.h"

namespace xoar {

class XsShardedStore {
 public:
  using TxId = XsStore::TxId;
  using WatchCallback = XsStore::WatchCallback;
  using FlatNode = XsStore::FlatNode;
  // A departing client's watch registrations, as (path, token).
  using WatchKeys = std::set<std::pair<std::string, std::string>>;
  static constexpr TxId kNoTransaction = XsStore::kNoTransaction;

  // `obs` receives `xs.shard.*` metrics and is handed to every shard.
  explicit XsShardedStore(Obs* obs, int shard_count = 1);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  XsStore& shard(int index) { return *shards_[index]; }
  const XsStore& shard(int index) const { return *shards_[index]; }

  // Shard a path routes to. Spanning prefixes report shard 0 (their reads
  // resolve there); IsSpanningPath distinguishes them.
  int ShardIndexForPath(std::string_view path) const;
  // The shard a domain's own /local/domain/<id> directory lives on — where
  // its transactions live.
  int ShardIndexForDomain(DomainId domain) const;
  // True for "/", "/local" and "/local/domain": ancestors of every
  // per-tenant subtree, present on all shards.
  static bool IsSpanningPath(std::string_view path);

  // --- Configuration (fans out; remembered so Reshard re-applies it) ---

  void AddManagerDomain(DomainId domain);
  bool IsManager(DomainId domain) const { return managers_.count(domain) > 0; }
  void set_node_quota(std::size_t quota);

  // --- Core operations (XsStore-compatible surface) ---
  //
  // Each routes its path once and is refused UNAVAILABLE while a shard it
  // needs restarts: a spanning path needs every shard, any other path its
  // own. A transactional call (tx != kNoTransaction) runs on the caller's
  // home shard, so it needs that shard. Exists and GetPerms are not gated.

  StatusOr<std::string> Read(DomainId caller, std::string_view path,
                             TxId tx = kNoTransaction);
  Status Write(DomainId caller, std::string_view path, std::string_view value,
               TxId tx = kNoTransaction);
  Status Mkdir(DomainId caller, std::string_view path,
               TxId tx = kNoTransaction);
  Status Remove(DomainId caller, std::string_view path,
                TxId tx = kNoTransaction);
  StatusOr<std::vector<std::string>> List(DomainId caller,
                                          std::string_view path,
                                          TxId tx = kNoTransaction);
  bool Exists(DomainId caller, std::string_view path,
              TxId tx = kNoTransaction);
  StatusOr<XsNodePerms> GetPerms(DomainId caller, std::string_view path);
  Status SetPerms(DomainId caller, std::string_view path,
                  const XsNodePerms& perms);

  Status Watch(DomainId caller, std::string_view path, std::string_view token,
               WatchCallback cb);
  Status Unwatch(DomainId caller, std::string_view path,
                 std::string_view token);
  std::size_t WatchCount() const;

  // A transaction lives on its caller's home shard and carries that
  // shard's id. As in XsStore, an id is NOT_FOUND to every domain but the
  // one that started it.
  StatusOr<TxId> TransactionStart(DomainId caller);
  Status TransactionEnd(DomainId caller, TxId tx, bool commit);
  // Drops a departing client's `watches` and aborts its open transactions,
  // whether or not their shards are up: a restarting shard drops them at
  // completion anyway, and no other shard may keep a departed client's
  // callbacks.
  void DropClient(DomainId caller, const WatchKeys& watches);

  // --- State shipping across all shards ---

  // Merged flat dump, sorted by path, spanning prefixes deduplicated.
  std::vector<FlatNode> Serialize() const;
  // Replaces every shard's contents with the routed subset of `nodes`.
  void Restore(const std::vector<FlatNode>& nodes);

  // --- Microreboot of one shard (its XenStore-State domain) ---
  //
  // Begin refuses the shard's requests; Complete serves them again and
  // drops the shard's volatile tenant state (watches, transactions). The
  // contents stay where they are. Errors: INVALID_ARGUMENT for no such
  // shard, FAILED_PRECONDITION for a shard already (or not) restarting.
  Status BeginShardRestart(int index);
  Status CompleteShardRestart(int index);
  bool shard_available(int index) const {
    return index >= 0 && index < shard_count() && !restarting_[index];
  }

  // Repartitions the store into `new_shard_count` shards, all available.
  // Contents, owner accounting, managers and the node quota survive;
  // watches and live transactions are dropped (tenants re-register, as
  // after a restart), and no transaction id is issued again.
  void Reshard(int new_shard_count);

  // --- Aggregated introspection ---

  std::size_t NodeCount() const;
  std::size_t NodesOwnedBy(DomainId domain) const;
  std::uint64_t cow_copies() const;
  std::uint64_t entries_visited() const;

 private:
  // Where a path lives: a spanning prefix on every shard, any other path
  // on one.
  struct Route {
    bool spanning = false;  // "/", "/local" or "/local/domain"
    int shard = 0;          // the path's shard; 0 for a spanning prefix
  };
  Route RouteFor(std::string_view path) const;
  // The route of `path` if every shard it needs is up.
  StatusOr<Route> Admit(std::string_view path);
  // `caller`'s home shard, if it is up.
  StatusOr<XsStore*> Home(DomainId caller);
  // UNAVAILABLE, counted as one reject, while shard `index` restarts.
  Status CheckUp(int index);

  void ApplyConfig(XsStore* store);
  // Runs `op` on every shard as one fan-out; the first error wins.
  template <typename Op>
  Status FanOut(Op op);
  Status UnwatchRouted(const Route& route, DomainId caller,
                       std::string_view path, std::string_view token);

  Obs* obs_;
  Gauge* m_shard_count_;  // xs.shard.count
  Counter* m_fanouts_;    // xs.shard.fanout_ops
  Counter* m_reshards_;   // xs.shard.reshards
  Counter* m_rejects_;    // xs.shard.unavailable_rejects
  std::vector<std::unique_ptr<XsStore>> shards_;
  std::vector<bool> restarting_;  // per shard
  std::set<DomainId> managers_;
  std::size_t node_quota_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_SHARDED_STORE_H_
