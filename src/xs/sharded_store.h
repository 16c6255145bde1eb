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
//  - Transactions are pinned to the caller's home shard (the shard its
//    own /local/domain/<id> directory routes to) — snapshot isolation is
//    per-partition, which is sufficient because a guest's transactional
//    traffic is confined to its own subtree.
//
// With shard_count == 1 the facade is behavior-identical to a bare
// XsStore, which keeps the stock (monolithic) platform unchanged.
#ifndef XOAR_SRC_XS_SHARDED_STORE_H_
#define XOAR_SRC_XS_SHARDED_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
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
  static constexpr TxId kNoTransaction = XsStore::kNoTransaction;

  // `obs` receives `xs.shard.*` metrics and is handed to every shard.
  explicit XsShardedStore(Obs* obs, int shard_count = 1);

  int shard_count() const { return static_cast<int>(shards_.size()); }
  XsStore& shard(int index) { return *shards_[index]; }
  const XsStore& shard(int index) const { return *shards_[index]; }

  // Where a path lives: a spanning prefix on every shard, any other path
  // on one. A request routes its path once; the service's shard gate and
  // the routed operations below both take the result.
  struct Route {
    bool spanning = false;  // "/", "/local" or "/local/domain"
    int shard = 0;          // the path's shard; 0 for a spanning prefix
  };
  Route RouteFor(std::string_view path) const;
  // Shard a path routes to. Spanning prefixes report shard 0 (their reads
  // resolve there); IsSpanningPath distinguishes them.
  int ShardIndexForPath(std::string_view path) const;
  // The shard a domain's own /local/domain/<id> directory lives on — where
  // its transactions are pinned.
  int ShardIndexForDomain(DomainId domain) const;
  // True for "/", "/local" and "/local/domain": ancestors of every
  // per-tenant subtree, present on all shards.
  static bool IsSpanningPath(std::string_view path);

  // --- Configuration (fans out; remembered so Reshard re-applies it) ---

  void AddManagerDomain(DomainId domain);
  bool IsManager(DomainId domain) const { return managers_.count(domain) > 0; }
  void set_node_quota(std::size_t quota);

  // --- Core operations (XsStore-compatible surface) ---

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

  // The same operations outside a transaction, on a path already routed
  // by RouteFor.
  StatusOr<std::string> Read(const Route& route, DomainId caller,
                             std::string_view path);
  Status Write(const Route& route, DomainId caller, std::string_view path,
               std::string_view value);
  Status Mkdir(const Route& route, DomainId caller, std::string_view path);
  Status Remove(const Route& route, DomainId caller, std::string_view path);
  StatusOr<std::vector<std::string>> List(const Route& route, DomainId caller,
                                          std::string_view path);
  Status SetPerms(const Route& route, DomainId caller, std::string_view path,
                  const XsNodePerms& perms);
  Status Watch(const Route& route, DomainId caller, std::string_view path,
               std::string_view token, WatchCallback cb);
  Status Unwatch(const Route& route, DomainId caller, std::string_view path,
                 std::string_view token);

  // Transactions carry facade-level ids; each maps to (shard, local id),
  // pinned at start to the caller's home shard. As in XsStore, an id is
  // NOT_FOUND to every domain but the one that started it.
  StatusOr<TxId> TransactionStart(DomainId caller);
  Status TransactionEnd(DomainId caller, TxId tx, bool commit);
  // Shard `caller`'s live transaction `tx` is pinned to; -1 if there is no
  // such transaction of `caller`'s.
  int ShardOfTransaction(DomainId caller, TxId tx) const;
  // Aborts every open transaction of `caller` (a departing client): a scan
  // of the open transactions, whose handles name their caller.
  void AbortTransactionsOf(DomainId caller);

  // --- State shipping across all shards ---

  // Merged flat dump, sorted by path, spanning prefixes deduplicated.
  std::vector<FlatNode> Serialize() const;
  // Replaces every shard's contents with the routed subset of `nodes`.
  void Restore(const std::vector<FlatNode>& nodes);

  // O(1)-per-shard checkpoint of the whole sharded store.
  class Snapshot {
   public:
    Snapshot() = default;
    bool valid() const { return !shards_.empty(); }

   private:
    friend class XsShardedStore;
    std::vector<XsStore::Snapshot> shards_;
  };
  Snapshot TakeSnapshot() const;
  void RestoreSnapshot(const Snapshot& snapshot);

  // Per-shard microreboot support: checkpoint one partition, restore it,
  // and drop its volatile tenant state (watches, transactions). The facade
  // also forgets the dropped shard's transaction handles.
  XsStore::Snapshot TakeShardSnapshot(int index) const;
  void RestoreShardSnapshot(int index, const XsStore::Snapshot& snapshot);
  void DropShardVolatileState(int index);

  // Repartitions the store into `new_shard_count` shards. Contents, owner
  // accounting, managers and the node quota survive; watches and live
  // transactions are dropped (tenants re-register, as after a restart).
  void Reshard(int new_shard_count);

  // --- Aggregated introspection ---

  std::uint64_t generation() const;
  std::uint64_t op_count() const;
  std::size_t NodeCount() const;
  std::size_t NodesOwnedBy(DomainId domain) const;
  std::uint64_t cow_copies() const;
  std::uint64_t entries_visited() const;

 private:
  struct TxHandle {
    DomainId caller;
    int shard;
    TxId local;
  };

  // `caller`'s own transaction `tx`; every transactional op resolves its id
  // here, so a foreign id is answered exactly as an unknown one.
  StatusOr<TxHandle> FindTransaction(DomainId caller, TxId tx) const;

  void ApplyConfig(XsStore* store);
  // Runs `op` on every shard as one fan-out; the first error wins.
  template <typename Op>
  Status FanOut(Op op);

  Obs* obs_;
  Gauge* m_shard_count_;  // xs.shard.count
  Counter* m_fanouts_;    // xs.shard.fanout_ops
  Counter* m_reshards_;   // xs.shard.reshards
  std::vector<std::unique_ptr<XsStore>> shards_;
  std::map<TxId, TxHandle> tx_map_;
  TxId next_tx_ = 1;
  std::set<DomainId> managers_;
  std::size_t node_quota_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_SHARDED_STORE_H_
