// XenStore (§4.4): hierarchical key-value store with per-node permissions,
// watches, and optimistic transactions.
//
// This is the *data model*; the shard-level split into XenStore-Logic
// (stateless request processing) and XenStore-State (the long-lived
// contents) lives in src/xs/service.h. Access control: node owners and
// explicitly listed domains get the granted rights; "manager" domains (the
// XenStore service itself, or Dom0 in stock Xen) bypass ACLs.
//
// Hot-path design (§5.1 argues primitive costs must stay small for
// disaggregation to be viable):
//  - Nodes, and the entries of each directory's children map (a persistent
//    AVL tree, src/xs/cow_map.h), are held by shared_ptr under one
//    copy-on-write rule: whatever another version still holds is copied,
//    anything unshared is mutated in place. Starting a transaction is an
//    O(1) pointer copy; a later mutation copies O(depth x log fan-out)
//    nodes and entries on its path, and one with nothing shared copies
//    none (cow_copies() counts them).
//  - A request resolves its path once. Paths are capped at xenstored's
//    3072 bytes and walked as string_view segments; a canonical one (every
//    in-tree caller builds them) is used in place, and only another is
//    rebuilt. A mutation makes one copy-on-write descent, and checks
//    permission on the node it reaches (or its deepest existing ancestor)
//    and quota room for every missing segment before changing anything. A
//    refused mutation may so have copied its path, and cow_copies() counts
//    that, but it changes no value, perms, node, owner count or generation.
//    entries_visited() counts the children-map entries every lookup and
//    descent steps on.
//  - Per-owner node counts are maintained incrementally on create/remove/
//    chown, so quota checks and NodesOwnedBy are O(log #owners) instead of
//    a full-tree flatten. Nothing on a request or commit path copies them,
//    and the counts are recounted from the tree only when Restore replaces
//    the contents.
//  - A commit that nothing raced (no mutation and no quota change since
//    its transaction began) adopts the transaction's tree and owner delta:
//    it walks no path. A raced commit replays the ops against the live
//    tree into a local delta, folded in only on success. Either way the
//    generation bump, mutation log and watch fires are the same.
//  - Watches live in a path-segment trie; dispatching a mutation visits the
//    ancestors of the mutated path plus the watch subtree below it, so cost
//    scales with *matching* watches, not total watches.
//  - Commit uses per-path read/write-set validation against a log of
//    mutations since the transaction began; disjoint concurrent commits
//    both succeed (no whole-store generation conflict).
#ifndef XOAR_SRC_XS_STORE_H_
#define XOAR_SRC_XS_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/cow_map.h"

namespace xoar {

enum class XsPerm : std::uint8_t {
  kNone = 0,
  kRead = 1,
  kWrite = 2,
  kReadWrite = 3,
};

struct XsNodePerms {
  DomainId owner;
  std::map<DomainId, XsPerm> acl;
};

// A fired watch: the modified path plus the token registered with the watch.
struct XsWatchEvent {
  std::string path;
  std::string token;
};

class XsStore {
 public:
  using WatchCallback = std::function<void(const XsWatchEvent&)>;
  using TxId = std::uint32_t;
  static constexpr TxId kNoTransaction = 0;

  // `obs` receives `xenstore.store.*` counters and kXenStore trace events.
  // `next_tx` is the first transaction id the store issues.
  explicit XsStore(Obs* obs, TxId next_tx = kNoTransaction + 1);

  // Domains that bypass ACL checks (the store service itself, stock Dom0).
  void AddManagerDomain(DomainId domain) { managers_.insert(domain); }
  bool IsManager(DomainId domain) const { return managers_.count(domain) > 0; }

  // Per-owner node quota; guards against a guest monopolizing the store
  // (the DoS vector the paper cites in §4.4). 0 disables the quota. A
  // transaction open across a quota change replays its commit, so its ops
  // are checked against the quota in force when it commits.
  void set_node_quota(std::size_t quota) {
    node_quota_ = quota;
    ++quota_sets_;
  }

  // --- Core operations. `tx` of kNoTransaction applies immediately. ---

  StatusOr<std::string> Read(DomainId caller, std::string_view path,
                             TxId tx = kNoTransaction);
  Status Write(DomainId caller, std::string_view path, std::string_view value,
               TxId tx = kNoTransaction);
  // Creates an empty directory node (Write also creates intermediate nodes).
  Status Mkdir(DomainId caller, std::string_view path,
               TxId tx = kNoTransaction);
  // Removes the node and its subtree.
  Status Remove(DomainId caller, std::string_view path,
                TxId tx = kNoTransaction);
  StatusOr<std::vector<std::string>> List(DomainId caller,
                                          std::string_view path,
                                          TxId tx = kNoTransaction);
  // Existence probes are not ACL-gated, as in xenstored, but inside a
  // transaction they see (and are validated against) the transaction's view.
  bool Exists(DomainId caller, std::string_view path,
              TxId tx = kNoTransaction);

  StatusOr<XsNodePerms> GetPerms(DomainId caller, std::string_view path);
  Status SetPerms(DomainId caller, std::string_view path,
                  const XsNodePerms& perms);

  // --- Watches (§4.4) ---

  // Fires `cb` whenever `path` or anything below it changes. Watches are
  // keyed by (caller, path, token) for unwatch.
  Status Watch(DomainId caller, std::string_view path, std::string_view token,
               WatchCallback cb);
  Status Unwatch(DomainId caller, std::string_view path,
                 std::string_view token);
  std::size_t WatchCount() const { return watch_count_; }

  // --- Transactions: snapshot-isolation with commit-time conflict check ---
  //
  // A transaction belongs to the domain that started it: to every other
  // caller its id is NOT_FOUND, exactly like an id never issued.

  // O(1): the transaction shares the current tree copy-on-write.
  StatusOr<TxId> TransactionStart(DomainId caller);
  // Commits; returns ABORTED if a committed mutation since the transaction
  // began overlaps (by path prefix) anything this transaction read or wrote
  // (caller should retry, as with real xenstored EAGAIN). Mutations on
  // disjoint paths do not conflict.
  Status TransactionEnd(DomainId caller, TxId tx, bool commit);
  // Aborts every open transaction of `caller` (a departing client).
  void AbortTransactionsOf(DomainId caller);
  // The id the next TransactionStart issues. Ids only grow, so a caller's
  // ended transaction id never names a later transaction.
  TxId next_tx() const { return next_tx_; }

  // --- State shipping (XenStore-State protocol, §5.1) ---

  // Flat dump of every node: (path, value, perms). Deterministic order.
  struct FlatNode {
    std::string path;
    std::string value;
    XsNodePerms perms;
  };
  std::vector<FlatNode> Serialize() const;
  // Replaces the contents with `nodes`. Restoring shipped state is not a
  // guest request, so no node quota applies: a manager chown can leave a
  // guest owning more nodes than the quota, and all of them come back.
  void Restore(const std::vector<FlatNode>& nodes);

  // Drops all volatile per-client state: active transactions (and the
  // mutation log that only serves them) and every watch registration. The
  // tree contents are untouched. This is what a microreboot of the State
  // shard holding this partition does to its tenants (§3.3): the contents
  // stay, but in-flight transactions and watch registrations die with the
  // shard.
  void DropVolatileState() {
    transactions_.clear();
    mutation_log_.clear();
    watch_root_.watches.clear();
    watch_root_.children.clear();
    watch_count_ = 0;
  }

  std::uint64_t generation() const { return generation_; }
  std::size_t NodeCount() const { return node_count_; }
  std::size_t NodesOwnedBy(DomainId domain) const;
  // Copy-on-write work so far: nodes cloned plus children-map entries
  // copied because another version (a transaction) shared them.
  std::uint64_t cow_copies() const { return work_.copies; }
  // Children-map entries every lookup and descent so far stepped on: the
  // nodes visited by path walks, O(log fan-out) entries per segment.
  std::uint64_t entries_visited() const { return work_.visits; }

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;
  // Nodes per owning domain: the live counters, or a signed delta against
  // them (a transaction's view, a commit replay).
  using OwnerCounts = std::map<DomainId, std::int64_t>;

  struct Node {
    std::string value;
    XsNodePerms perms;
    CowMap<NodePtr> children;
  };

  struct WatchEntry {
    DomainId caller;
    std::string path;
    std::string token;
    WatchCallback cb;
  };

  // Path-segment trie of registered watches. A mutation at /a/b/c matches
  // the watches stored at the trie nodes for /, /a, /a/b, /a/b/c, plus every
  // watch in the trie subtree below /a/b/c.
  struct WatchNode {
    std::vector<WatchEntry> watches;
    std::map<std::string, std::unique_ptr<WatchNode>, std::less<>> children;
  };

  // A transactional mutation, replayed against the live tree by a commit
  // that raced another.
  struct TxOp {
    enum class Kind { kWrite, kMkdir, kRemove };
    Kind kind;
    std::string path;   // normalized
    std::string value;  // kWrite only
  };

  struct Transaction {
    DomainId caller;
    std::uint64_t start_generation;
    std::uint64_t start_quota_sets;
    NodePtr root;  // copy-on-write snapshot of the tree at start
    std::set<std::string> read_set;
    std::set<std::string> write_set;
    std::vector<TxOp> ops;
    // Nodes created minus removed per owner inside this transaction, so
    // quota checks see the transaction's own view.
    OwnerCounts owner_delta;
  };

  // Where a copy-on-write descent along a path stopped.
  struct Descent {
    Node* node;  // the path's node, or its deepest existing ancestor
    PathSegments::Iterator missing;  // the first absent segment, or `end`
    PathSegments::Iterator end;
    bool found() const { return missing == end; }
  };

  // Makes `slot` exclusively owned (shallow-cloning if shared with a
  // transaction) and returns the now-mutable node.
  Node* Detach(NodePtr& slot);
  const Node* Find(const Node* root, std::string_view path);
  // The one walk a mutation makes: copy-on-write down `path` as far as it
  // exists. Nothing changes but the copies, so a mutation refused after it
  // leaves every value, node and owner count as it was.
  Descent Descend(NodePtr& root, std::string_view path);
  // Creates the segments a descent found missing, owned by `owner`,
  // charging them to the live counters (delta == nullptr) or to `delta`.
  // The quota must have room for all of them, or none is created.
  StatusOr<Node*> CreateMissing(const Descent& at, DomainId owner,
                                OwnerCounts* delta);
  static void TallySubtree(const Node& node, OwnerCounts* owners,
                           std::size_t* nodes);
  // Live count plus `delta` (if any): what a quota check sees.
  std::size_t OwnedCount(DomainId owner, const OwnerCounts* delta) const;
  // Adds `n` nodes to `owner`'s live count and to the total.
  void AddOwned(DomainId owner, std::int64_t n);
  // Recomputes the live counters from the tree: O(nodes).
  void RecountOwners();

  Status CheckAccess(DomainId caller, const Node& node, XsPerm needed) const;

  // Mutation bodies shared by the direct path, transactions and commit
  // replay; `norm` is canonical. Each makes one copy-on-write descent and
  // checks permission (and quota) on what it reached before changing
  // anything. Owner changes go to the live counters (delta == nullptr) or
  // to `delta`. They do not bump the generation or fire watches; callers
  // do.
  Status ApplyWrite(NodePtr& root, DomainId caller, std::string_view norm,
                    std::string_view value, OwnerCounts* delta);
  Status ApplyMkdir(NodePtr& root, DomainId caller, std::string_view norm,
                    OwnerCounts* delta);
  Status ApplyRemove(NodePtr& root, DomainId caller, std::string_view norm,
                     OwnerCounts* delta);

  // `caller`'s own transaction `tx`; every transactional op resolves its id
  // here. Ids are sequential, so a foreign id must get the NOT_FOUND an
  // unknown one gets: it neither reveals nor reaches the transaction.
  StatusOr<Transaction*> FindTransaction(DomainId caller, TxId tx);
  // Replays a raced commit's ops against the live tree; on failure the
  // tree and counters stay as they were and the commit aborts.
  Status Replay(const Transaction& transaction);
  // Post-mutation bookkeeping for the live tree: generation bump, mutation
  // log (only kept while transactions are active), watch dispatch.
  void CommitMutation(std::string_view norm);
  void FireWatches(std::string_view path);
  static void CollectSubtreeWatches(
      const WatchNode& node,
      std::vector<std::pair<WatchCallback, XsWatchEvent>>* out,
      std::string_view fired_path);
  void FlattenTree(const Node& node, const std::string& path,
                   std::vector<FlatNode>* out) const;

  Obs* obs_;
  Counter* m_reads_;         // xenstore.store.reads
  Counter* m_writes_;        // xenstore.store.writes (+mkdir/remove)
  Counter* m_lists_;         // xenstore.store.lists
  Counter* m_tx_started_;    // xenstore.store.tx_started
  Counter* m_tx_committed_;  // xenstore.store.tx_committed
  Counter* m_tx_aborted_;    // xenstore.store.tx_aborted
  Counter* m_watch_fires_;   // xenstore.store.watch_fires

  NodePtr root_;
  std::set<DomainId> managers_;
  WatchNode watch_root_;
  std::size_t watch_count_ = 0;
  std::map<TxId, Transaction> transactions_;
  TxId next_tx_;
  std::uint64_t generation_ = 0;
  std::size_t node_quota_ = 0;
  std::uint64_t quota_sets_ = 0;  // set_node_quota calls so far
  // Incrementally maintained: #nodes per owning domain (no zero entries)
  // and their sum, the node total (root excluded). Kept in sync by create/
  // remove/chown/commit; recounted when Restore replaces the tree.
  OwnerCounts owner_counts_;
  std::size_t node_count_ = 0;
  CowWork work_;  // behind cow_copies() and entries_visited()
  // (generation, path) of committed mutations, recorded only while
  // transactions are active; cleared when the last transaction ends.
  std::vector<std::pair<std::uint64_t, std::string>> mutation_log_;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_STORE_H_
