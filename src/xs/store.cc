#include "src/xs/store.h"

#include <algorithm>
#include <utility>

#include "src/base/strings.h"

namespace xoar {

namespace {
// xenstored's XENSTORE_ABS_PATH_MAX. Bounding the path bounds the tree's
// depth, and with it every recursion over the tree (Serialize, removal,
// destruction), whatever path a guest sends.
constexpr std::size_t kMaxPathBytes = 3072;

// `path` in canonical form. Every in-tree caller builds canonical paths,
// which are used in place; any other path is rebuilt into `*rebuilt`.
StatusOr<std::string_view> Canonical(std::string_view path,
                                     std::string* rebuilt) {
  if (!IsCanonicalPath(path)) {
    *rebuilt = NormalizePath(path);
    path = *rebuilt;
  }
  if (path.size() > kMaxPathBytes) {
    return InvalidArgumentError(
        StrFormat("path of %zu bytes exceeds the %zu-byte limit", path.size(),
                  kMaxPathBytes));
  }
  return path;
}

Status NoNode(std::string_view path) {
  return NotFoundError(StrFormat("no node %.*s", static_cast<int>(path.size()),
                                 path.data()));
}

// True if a mutation at `mutated` is visible to an access at `accessed`:
// either path is an ancestor of (or equal to) the other.
bool PathsOverlap(std::string_view mutated, std::string_view accessed) {
  return PathHasPrefix(mutated, accessed) || PathHasPrefix(accessed, mutated);
}
}  // namespace

XsStore::XsStore(Obs* obs, TxId next_tx)
    : obs_(obs),
      m_reads_(obs->metrics().GetCounter("xenstore.store.reads")),
      m_writes_(obs->metrics().GetCounter("xenstore.store.writes")),
      m_lists_(obs->metrics().GetCounter("xenstore.store.lists")),
      m_tx_started_(obs->metrics().GetCounter("xenstore.store.tx_started")),
      m_tx_committed_(
          obs->metrics().GetCounter("xenstore.store.tx_committed")),
      m_tx_aborted_(obs->metrics().GetCounter("xenstore.store.tx_aborted")),
      m_watch_fires_(obs->metrics().GetCounter("xenstore.store.watch_fires")),
      root_(std::make_shared<Node>()),
      next_tx_(next_tx) {
  root_->perms.owner = DomainId::Invalid();
}

XsStore::Node* XsStore::Detach(NodePtr& slot) {
  if (slot.use_count() > 1) {
    // Shared with a transaction: shallow-clone. Copying the children map
    // is a root pointer copy, so the entries and the subtree stay shared
    // until a deeper mutation detaches them too.
    slot = std::make_shared<Node>(*slot);
    ++work_.copies;
  }
  return slot.get();
}

const XsStore::Node* XsStore::Find(const Node* root, std::string_view path) {
  const Node* node = root;
  for (std::string_view segment : PathSegments(path)) {
    const NodePtr* child = node->children.Find(segment, &work_);
    if (child == nullptr) {
      return nullptr;
    }
    node = child->get();
  }
  return node;
}

XsStore::Descent XsStore::Descend(NodePtr& root, std::string_view path) {
  const PathSegments segments(path);
  Descent at{Detach(root), segments.begin(), segments.end()};
  for (; !at.found(); ++at.missing) {
    NodePtr* child = at.node->children.FindMutable(*at.missing, &work_);
    if (child == nullptr) {
      break;
    }
    at.node = Detach(*child);
  }
  return at;
}

std::size_t XsStore::OwnedCount(DomainId owner,
                                const OwnerCounts* delta) const {
  std::int64_t count = 0;
  auto it = owner_counts_.find(owner);
  if (it != owner_counts_.end()) {
    count = it->second;
  }
  if (delta != nullptr) {
    auto pending = delta->find(owner);
    if (pending != delta->end()) {
      count += pending->second;
    }
  }
  return count > 0 ? static_cast<std::size_t>(count) : 0;
}

void XsStore::AddOwned(DomainId owner, std::int64_t n) {
  auto it = owner_counts_.try_emplace(owner, 0).first;
  it->second += n;
  node_count_ += static_cast<std::size_t>(n);  // modular: n may be negative
  if (it->second == 0) {
    owner_counts_.erase(it);
  }
}

void XsStore::RecountOwners() {
  owner_counts_.clear();
  node_count_ = 0;
  root_->children.ForEach([this](const std::string&, const NodePtr& child) {
    TallySubtree(*child, &owner_counts_, &node_count_);
  });
}

StatusOr<XsStore::Node*> XsStore::CreateMissing(const Descent& at,
                                                DomainId owner,
                                                OwnerCounts* delta) {
  std::size_t missing = 0;
  for (PathSegments::Iterator it = at.missing; it != at.end; ++it) {
    ++missing;
  }
  if (missing == 0) {
    return at.node;
  }
  if (node_quota_ != 0 && owner.valid() && !IsManager(owner) &&
      OwnedCount(owner, delta) + missing > node_quota_) {
    return ResourceExhaustedError(
        StrFormat("dom%u exceeded XenStore node quota (%zu)", owner.value(),
                  node_quota_));
  }
  Node* node = at.node;
  for (PathSegments::Iterator it = at.missing; it != at.end; ++it) {
    auto created = std::make_shared<Node>();
    created->perms.owner = owner;
    node = node->children.Insert(*it, std::move(created), &work_).get();
  }
  if (delta != nullptr) {
    (*delta)[owner] += static_cast<std::int64_t>(missing);
  } else {
    AddOwned(owner, static_cast<std::int64_t>(missing));
  }
  return node;
}

void XsStore::TallySubtree(const Node& node, OwnerCounts* owners,
                           std::size_t* nodes) {
  ++(*owners)[node.perms.owner];
  ++(*nodes);
  node.children.ForEach([owners, nodes](const std::string&,
                                        const NodePtr& child) {
    TallySubtree(*child, owners, nodes);
  });
}

Status XsStore::CheckAccess(DomainId caller, const Node& node,
                            XsPerm needed) const {
  if (IsManager(caller)) {
    return Status::Ok();
  }
  if (node.perms.owner == caller) {
    return Status::Ok();
  }
  auto it = node.perms.acl.find(caller);
  const auto have =
      it == node.perms.acl.end() ? XsPerm::kNone : it->second;
  const bool ok =
      (static_cast<std::uint8_t>(have) & static_cast<std::uint8_t>(needed)) ==
      static_cast<std::uint8_t>(needed);
  if (!ok) {
    return PermissionDeniedError(
        StrFormat("dom%u lacks %s access", caller.value(),
                  needed == XsPerm::kRead ? "read" : "write"));
  }
  return Status::Ok();
}

StatusOr<XsStore::Transaction*> XsStore::FindTransaction(DomainId caller,
                                                         TxId tx) {
  auto it = transactions_.find(tx);
  if (it == transactions_.end() || it->second.caller != caller) {
    return NotFoundError("no such transaction");
  }
  return &it->second;
}

void XsStore::CommitMutation(std::string_view norm) {
  ++generation_;
  if (!transactions_.empty()) {
    mutation_log_.emplace_back(generation_, norm);
  }
  FireWatches(norm);
}

Status XsStore::ApplyWrite(NodePtr& root, DomainId caller,
                           std::string_view norm, std::string_view value,
                           OwnerCounts* delta) {
  // Writing needs write access to the node, or, creating it, to its
  // deepest existing ancestor.
  const Descent at = Descend(root, norm);
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, *at.node, XsPerm::kWrite));
  XOAR_ASSIGN_OR_RETURN(Node * node, CreateMissing(at, caller, delta));
  node->value = value;
  return Status::Ok();
}

Status XsStore::ApplyMkdir(NodePtr& root, DomainId caller,
                           std::string_view norm, OwnerCounts* delta) {
  const Descent at = Descend(root, norm);
  if (at.found()) {
    return Status::Ok();  // mkdir is idempotent, as in xenstored
  }
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, *at.node, XsPerm::kWrite));
  return CreateMissing(at, caller, delta).status();
}

Status XsStore::ApplyRemove(NodePtr& root, DomainId caller,
                            std::string_view norm, OwnerCounts* delta) {
  // `norm` is canonical: its leaf follows the last '/'.
  const std::size_t slash = norm.rfind('/');
  const std::string_view leaf = norm.substr(slash + 1);
  if (leaf.empty()) {
    return InvalidArgumentError("cannot remove the root");
  }
  const Descent parent = Descend(root, norm.substr(0, slash));
  const NodePtr* view =
      parent.found() ? parent.node->children.Find(leaf, &work_) : nullptr;
  if (view == nullptr) {
    return NoNode(norm);
  }
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, **view, XsPerm::kWrite));
  OwnerCounts removed;
  std::size_t removed_nodes = 0;
  TallySubtree(**view, &removed, &removed_nodes);
  for (const auto& [owner, n] : removed) {
    if (delta != nullptr) {
      (*delta)[owner] -= n;
    } else {
      AddOwned(owner, -n);
    }
  }
  parent.node->children.Erase(leaf, &work_);
  return Status::Ok();
}

StatusOr<std::string> XsStore::Read(DomainId caller, std::string_view path,
                                    TxId tx_id) {
  m_reads_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_read", caller.value());
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  const Node* root = root_.get();
  if (tx_id != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(Transaction* tx, FindTransaction(caller, tx_id));
    tx->read_set.emplace(norm);
    root = tx->root.get();
  }
  const Node* node = Find(root, norm);
  if (node == nullptr) {
    return NoNode(norm);
  }
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, *node, XsPerm::kRead));
  return node->value;
}

Status XsStore::Write(DomainId caller, std::string_view path,
                      std::string_view value, TxId tx_id) {
  m_writes_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_write", caller.value());
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  if (tx_id == kNoTransaction) {
    XOAR_RETURN_IF_ERROR(ApplyWrite(root_, caller, norm, value, nullptr));
    CommitMutation(norm);
    return Status::Ok();
  }
  XOAR_ASSIGN_OR_RETURN(Transaction* tx, FindTransaction(caller, tx_id));
  XOAR_RETURN_IF_ERROR(
      ApplyWrite(tx->root, caller, norm, value, &tx->owner_delta));
  tx->write_set.emplace(norm);
  tx->ops.push_back(
      TxOp{TxOp::Kind::kWrite, std::string(norm), std::string(value)});
  return Status::Ok();
}

Status XsStore::Mkdir(DomainId caller, std::string_view path, TxId tx_id) {
  m_writes_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_mkdir", caller.value());
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  if (tx_id == kNoTransaction) {
    XOAR_RETURN_IF_ERROR(ApplyMkdir(root_, caller, norm, nullptr));
    CommitMutation(norm);
    return Status::Ok();
  }
  XOAR_ASSIGN_OR_RETURN(Transaction* tx, FindTransaction(caller, tx_id));
  XOAR_RETURN_IF_ERROR(ApplyMkdir(tx->root, caller, norm, &tx->owner_delta));
  tx->write_set.emplace(norm);
  tx->ops.push_back(TxOp{TxOp::Kind::kMkdir, std::string(norm), std::string()});
  return Status::Ok();
}

Status XsStore::Remove(DomainId caller, std::string_view path, TxId tx_id) {
  m_writes_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_remove", caller.value());
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  if (tx_id == kNoTransaction) {
    XOAR_RETURN_IF_ERROR(ApplyRemove(root_, caller, norm, nullptr));
    CommitMutation(norm);
    return Status::Ok();
  }
  XOAR_ASSIGN_OR_RETURN(Transaction* tx, FindTransaction(caller, tx_id));
  XOAR_RETURN_IF_ERROR(
      ApplyRemove(tx->root, caller, norm, &tx->owner_delta));
  tx->write_set.emplace(norm);
  tx->ops.push_back(
      TxOp{TxOp::Kind::kRemove, std::string(norm), std::string()});
  return Status::Ok();
}

StatusOr<std::vector<std::string>> XsStore::List(DomainId caller,
                                                 std::string_view path,
                                                 TxId tx_id) {
  m_lists_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_list", caller.value());
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  const Node* root = root_.get();
  if (tx_id != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(Transaction* tx, FindTransaction(caller, tx_id));
    // Listing observes the children set, which any mutation below `norm`
    // changes — the prefix-overlap conflict check covers exactly that.
    tx->read_set.emplace(norm);
    root = tx->root.get();
  }
  const Node* node = Find(root, norm);
  if (node == nullptr) {
    return NoNode(norm);
  }
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, *node, XsPerm::kRead));
  std::vector<std::string> names;
  names.reserve(node->children.size());
  node->children.ForEach([&names](const std::string& name, const NodePtr&) {
    names.push_back(name);
  });
  return names;
}

bool XsStore::Exists(DomainId caller, std::string_view path, TxId tx_id) {
  // Existence probes are not ACL-gated, as in xenstored; only the
  // transaction must be the caller's.
  std::string rebuilt;
  const StatusOr<std::string_view> canonical = Canonical(path, &rebuilt);
  if (!canonical.ok()) {
    return false;  // no node has an overlong path
  }
  const std::string_view norm = *canonical;
  const Node* root = root_.get();
  if (tx_id != kNoTransaction) {
    const StatusOr<Transaction*> tx = FindTransaction(caller, tx_id);
    if (!tx.ok()) {
      return false;
    }
    (*tx)->read_set.emplace(norm);
    root = (*tx)->root.get();
  }
  return Find(root, norm) != nullptr;
}

StatusOr<XsNodePerms> XsStore::GetPerms(DomainId caller,
                                        std::string_view path) {
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  const Node* node = Find(root_.get(), norm);
  if (node == nullptr) {
    return NoNode(norm);
  }
  XOAR_RETURN_IF_ERROR(CheckAccess(caller, *node, XsPerm::kRead));
  return node->perms;
}

Status XsStore::SetPerms(DomainId caller, std::string_view path,
                         const XsNodePerms& perms) {
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  const Descent at = Descend(root_, norm);
  if (!at.found()) {
    return NoNode(norm);
  }
  Node* node = at.node;
  // Only the owner (or a manager) may change permissions.
  if (!IsManager(caller) && node->perms.owner != caller) {
    return PermissionDeniedError(
        StrFormat("dom%u does not own %.*s", caller.value(),
                  static_cast<int>(norm.size()), norm.data()));
  }
  const DomainId old_owner = node->perms.owner;
  node->perms = perms;
  // The root is not a counted node (Serialize does not ship it either).
  if (old_owner != perms.owner && node != root_.get()) {
    AddOwned(old_owner, -1);
    AddOwned(perms.owner, 1);
  }
  ++generation_;
  if (!transactions_.empty()) {
    mutation_log_.emplace_back(generation_, norm);
  }
  return Status::Ok();
}

Status XsStore::Watch(DomainId caller, std::string_view path,
                      std::string_view token, WatchCallback cb) {
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  WatchNode* node = &watch_root_;
  for (std::string_view segment : PathSegments(norm)) {
    auto it = node->children.find(segment);
    if (it == node->children.end()) {
      it = node->children
               .emplace(std::string(segment), std::make_unique<WatchNode>())
               .first;
    }
    node = it->second.get();
  }
  for (const auto& watch : node->watches) {
    if (watch.caller == caller && watch.token == token) {
      return AlreadyExistsError("watch already registered");
    }
  }
  node->watches.push_back(
      WatchEntry{caller, std::string(norm), std::string(token), std::move(cb)});
  ++watch_count_;
  // xenstored fires a watch immediately upon registration so the watcher can
  // pick up pre-existing state — split-driver negotiation depends on this.
  // Fire through local copies: the callback may register or remove watches
  // reentrantly, invalidating any reference into the trie.
  const WatchCallback fire = node->watches.back().cb;
  const XsWatchEvent event{std::string(norm), std::string(token)};
  fire(event);
  return Status::Ok();
}

Status XsStore::Unwatch(DomainId caller, std::string_view path,
                        std::string_view token) {
  std::string rebuilt;
  XOAR_ASSIGN_OR_RETURN(const std::string_view norm, Canonical(path, &rebuilt));
  // Remember the descent so empty trie nodes can be pruned afterwards.
  std::vector<std::pair<WatchNode*, std::string_view>> trail;
  WatchNode* node = &watch_root_;
  for (std::string_view segment : PathSegments(norm)) {
    auto it = node->children.find(segment);
    if (it == node->children.end()) {
      return NotFoundError("no such watch");
    }
    trail.emplace_back(node, segment);
    node = it->second.get();
  }
  auto it = std::find_if(node->watches.begin(), node->watches.end(),
                         [&](const WatchEntry& w) {
                           return w.caller == caller && w.token == token;
                         });
  if (it == node->watches.end()) {
    return NotFoundError("no such watch");
  }
  node->watches.erase(it);
  --watch_count_;
  for (auto rit = trail.rbegin(); rit != trail.rend(); ++rit) {
    auto child = rit->first->children.find(rit->second);
    if (!child->second->watches.empty() || !child->second->children.empty()) {
      break;
    }
    rit->first->children.erase(child);
  }
  return Status::Ok();
}

void XsStore::CollectSubtreeWatches(
    const WatchNode& node,
    std::vector<std::pair<WatchCallback, XsWatchEvent>>* out,
    std::string_view fired_path) {
  for (const auto& [name, child] : node.children) {
    for (const auto& watch : child->watches) {
      out->emplace_back(watch.cb,
                        XsWatchEvent{std::string(fired_path), watch.token});
    }
    CollectSubtreeWatches(*child, out, fired_path);
  }
}

void XsStore::FireWatches(std::string_view path) {
  // Collect matching callbacks first: a callback may register/unregister
  // watches reentrantly. Matches are the watches on the path's ancestors
  // (including the root and the path itself) plus every watch strictly
  // below the path.
  std::vector<std::pair<WatchCallback, XsWatchEvent>> to_fire;
  const WatchNode* node = &watch_root_;
  for (const auto& watch : node->watches) {
    to_fire.emplace_back(watch.cb,
                         XsWatchEvent{std::string(path), watch.token});
  }
  bool full_path = true;
  for (std::string_view segment : PathSegments(path)) {
    auto it = node->children.find(segment);
    if (it == node->children.end()) {
      full_path = false;
      break;
    }
    node = it->second.get();
    for (const auto& watch : node->watches) {
      to_fire.emplace_back(watch.cb,
                           XsWatchEvent{std::string(path), watch.token});
    }
  }
  if (full_path) {
    CollectSubtreeWatches(*node, &to_fire, path);
  }
  if (!to_fire.empty()) {
    m_watch_fires_->Increment(to_fire.size());
  }
  for (auto& [cb, event] : to_fire) {
    cb(event);
  }
}

StatusOr<XsStore::TxId> XsStore::TransactionStart(DomainId caller) {
  Transaction tx;
  tx.caller = caller;
  tx.start_generation = generation_;
  tx.start_quota_sets = quota_sets_;
  tx.root = root_;  // O(1): shared copy-on-write with the live tree
  TxId id = next_tx_++;
  transactions_.emplace(id, std::move(tx));
  m_tx_started_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_tx_start", caller.value());
  return id;
}

Status XsStore::TransactionEnd(DomainId caller, TxId tx, bool commit) {
  XOAR_ASSIGN_OR_RETURN(Transaction* pending, FindTransaction(caller, tx));
  // Per-path validation (run before the transaction — and with it possibly
  // the mutation log — is retired): a committed mutation since this
  // transaction began conflicts only if its path overlaps something this
  // transaction read or wrote. Disjoint concurrent activity commits cleanly
  // (no spurious EAGAIN, unlike a whole-store generation check).
  Status conflict = Status::Ok();
  if (commit) {
    for (const auto& [gen, mutated] : mutation_log_) {
      if (gen <= pending->start_generation) {
        continue;
      }
      const auto overlaps = [&mutated](const std::string& accessed) {
        return PathsOverlap(mutated, accessed);
      };
      if (std::any_of(pending->read_set.begin(), pending->read_set.end(),
                      overlaps) ||
          std::any_of(pending->write_set.begin(), pending->write_set.end(),
                      overlaps)) {
        conflict = AbortedError(
            StrFormat("store path %s changed during transaction",
                      mutated.c_str()));
        break;
      }
    }
  }
  Transaction transaction = std::move(*pending);
  transactions_.erase(tx);
  if (transactions_.empty()) {
    mutation_log_.clear();
  }
  if (!commit) {
    m_tx_aborted_->Increment();
    return Status::Ok();
  }
  if (!conflict.ok()) {
    m_tx_aborted_->Increment();
    obs_->tracer().Instant(TraceCategory::kXenStore, "xs_tx_conflict",
                           caller.value());
    return conflict;
  }
  if (transaction.start_generation == generation_ &&
      transaction.start_quota_sets == quota_sets_) {
    // Nothing committed and no quota set since the transaction began: the
    // live tree and counters are the ones its ops ran against, so its tree
    // and owner delta are exactly what a replay would build. Adopt them.
    root_ = std::move(transaction.root);
    for (const auto& [owner, n] : transaction.owner_delta) {
      AddOwned(owner, n);
    }
  } else {
    XOAR_RETURN_IF_ERROR(Replay(transaction));
  }
  m_tx_committed_->Increment();
  obs_->tracer().Op(TraceCategory::kXenStore, "xs_tx_commit", caller.value());
  ++generation_;
  for (const auto& op : transaction.ops) {
    if (!transactions_.empty()) {
      mutation_log_.emplace_back(generation_, op.path);
    }
    FireWatches(op.path);
  }
  return Status::Ok();
}

void XsStore::AbortTransactionsOf(DomainId caller) {
  for (auto it = transactions_.begin(); it != transactions_.end();) {
    if (it->second.caller == caller) {
      it = transactions_.erase(it);
      m_tx_aborted_->Increment();
    } else {
      ++it;
    }
  }
  if (transactions_.empty()) {
    mutation_log_.clear();
  }
}

Status XsStore::Replay(const Transaction& transaction) {
  // The saved root makes the tree side atomic: COW keeps it intact. Owner
  // changes accumulate in a local delta (quota checks see live + delta) and
  // reach the live counters only once every op succeeded. A guest can
  // force the replay to fail (quota, permissions changed under it), so the
  // rollback touches nothing but the root: O(ops), independent of owners
  // and nodes.
  NodePtr saved_root = root_;
  OwnerCounts delta;
  Status status = Status::Ok();
  for (const auto& op : transaction.ops) {
    switch (op.kind) {
      case TxOp::Kind::kWrite:
        status = ApplyWrite(root_, transaction.caller, op.path, op.value,
                            &delta);
        break;
      case TxOp::Kind::kMkdir:
        status = ApplyMkdir(root_, transaction.caller, op.path, &delta);
        break;
      case TxOp::Kind::kRemove:
        status = ApplyRemove(root_, transaction.caller, op.path, &delta);
        break;
    }
    if (!status.ok()) {
      root_ = std::move(saved_root);
      m_tx_aborted_->Increment();
      return AbortedError(StrFormat("transaction replay failed: %s",
                                    status.message().c_str()));
    }
  }
  for (const auto& [owner, n] : delta) {
    AddOwned(owner, n);
  }
  return Status::Ok();
}

void XsStore::FlattenTree(const Node& node, const std::string& path,
                          std::vector<FlatNode>* out) const {
  node.children.ForEach([&](const std::string& name, const NodePtr& child) {
    const std::string child_path = path + "/" + name;
    out->push_back(FlatNode{child_path, child->value, child->perms});
    FlattenTree(*child, child_path, out);
  });
}

std::vector<XsStore::FlatNode> XsStore::Serialize() const {
  std::vector<FlatNode> out;
  out.reserve(node_count_);
  FlattenTree(*root_, "", &out);
  return out;
}

void XsStore::Restore(const std::vector<FlatNode>& nodes) {
  root_ = std::make_shared<Node>();
  root_->perms.owner = DomainId::Invalid();
  // Rebuild without the quota check (restoring state is not a guest
  // request), then count once. A missing ancestor is created owned by the
  // first node below it, as a Write would.
  for (const auto& flat : nodes) {
    Node* node = root_.get();
    for (std::string_view segment : PathSegments(flat.path)) {
      NodePtr* child = node->children.FindMutable(segment, &work_);
      if (child == nullptr) {
        auto created = std::make_shared<Node>();
        created->perms.owner = flat.perms.owner;
        child = &node->children.Insert(segment, std::move(created), &work_);
      }
      node = child->get();
    }
    node->value = flat.value;
    node->perms = flat.perms;
  }
  RecountOwners();
  ++generation_;
  if (!transactions_.empty()) {
    // A wholesale replacement invalidates every active transaction.
    mutation_log_.emplace_back(generation_, "/");
  }
}

std::size_t XsStore::NodesOwnedBy(DomainId domain) const {
  auto it = owner_counts_.find(domain);
  return it == owner_counts_.end() ? 0 : static_cast<std::size_t>(it->second);
}

}  // namespace xoar
