#include "src/xs/sharded_store.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <utility>

#include "src/base/strings.h"

namespace xoar {

namespace {

// Parses a path into its routing decision without allocating per shard.
struct RouteInfo {
  bool spanning = false;   // "/", "/local", "/local/domain"
  bool tenant = false;     // /local/domain/<id>[/...]
  std::uint32_t tenant_id = 0;
};

RouteInfo RoutePath(std::string_view path) {
  RouteInfo info;
  const PathSegments segments(path);
  auto segment = segments.begin();
  for (std::string_view prefix : {"local", "domain"}) {
    if (segment == segments.end()) {
      info.spanning = true;
      return info;
    }
    if (*segment != prefix) {
      return info;
    }
    ++segment;
  }
  if (segment == segments.end()) {
    info.spanning = true;
    return info;
  }
  const std::string_view id = *segment;
  std::uint32_t value = 0;
  for (char c : id) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return info;  // non-numeric child of /local/domain: shard 0
    }
    value = value * 10 + static_cast<std::uint32_t>(c - '0');
  }
  info.tenant = true;
  info.tenant_id = value;
  return info;
}

}  // namespace

XsShardedStore::XsShardedStore(Obs* obs, int shard_count)
    : obs_(obs),
      m_shard_count_(obs->metrics().GetGauge("xs.shard.count")),
      m_fanouts_(obs->metrics().GetCounter("xs.shard.fanout_ops")),
      m_reshards_(obs->metrics().GetCounter("xs.shard.reshards")) {
  if (shard_count < 1) {
    shard_count = 1;
  }
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<XsStore>(obs_));
  }
  m_shard_count_->Set(static_cast<double>(shards_.size()));
}

void XsShardedStore::ApplyConfig(XsStore* store) {
  store->set_node_quota(node_quota_);
  for (DomainId manager : managers_) {
    store->AddManagerDomain(manager);
  }
}

void XsShardedStore::AddManagerDomain(DomainId domain) {
  managers_.insert(domain);
  for (auto& shard : shards_) {
    shard->AddManagerDomain(domain);
  }
}

void XsShardedStore::set_node_quota(std::size_t quota) {
  node_quota_ = quota;
  for (auto& shard : shards_) {
    shard->set_node_quota(quota);
  }
}

XsShardedStore::Route XsShardedStore::RouteFor(std::string_view path) const {
  const RouteInfo info = RoutePath(path);
  Route route;
  route.spanning = info.spanning;
  if (info.tenant) {
    route.shard = static_cast<int>(info.tenant_id % shards_.size());
  }
  return route;
}

int XsShardedStore::ShardIndexForPath(std::string_view path) const {
  return RouteFor(path).shard;
}

int XsShardedStore::ShardIndexForDomain(DomainId domain) const {
  return static_cast<int>(domain.value() % shards_.size());
}

bool XsShardedStore::IsSpanningPath(std::string_view path) {
  return RoutePath(path).spanning;
}

// --- Core operations --------------------------------------------------------

template <typename Op>
Status XsShardedStore::FanOut(Op op) {
  m_fanouts_->Increment();
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status status = op(*shard);
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

StatusOr<std::string> XsShardedStore::Read(DomainId caller,
                                           std::string_view path, TxId tx) {
  if (tx != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
    return shards_[handle.shard]->Read(caller, path, handle.local);
  }
  return Read(RouteFor(path), caller, path);
}

StatusOr<std::string> XsShardedStore::Read(const Route& route,
                                           DomainId caller,
                                           std::string_view path) {
  return shards_[route.shard]->Read(caller, path);
}

Status XsShardedStore::Write(DomainId caller, std::string_view path,
                             std::string_view value, TxId tx) {
  if (tx != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
    return shards_[handle.shard]->Write(caller, path, value, handle.local);
  }
  return Write(RouteFor(path), caller, path, value);
}

Status XsShardedStore::Write(const Route& route, DomainId caller,
                             std::string_view path, std::string_view value) {
  if (route.spanning) {
    return FanOut(
        [&](XsStore& shard) { return shard.Write(caller, path, value); });
  }
  return shards_[route.shard]->Write(caller, path, value);
}

Status XsShardedStore::Mkdir(DomainId caller, std::string_view path, TxId tx) {
  if (tx != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
    return shards_[handle.shard]->Mkdir(caller, path, handle.local);
  }
  return Mkdir(RouteFor(path), caller, path);
}

Status XsShardedStore::Mkdir(const Route& route, DomainId caller,
                             std::string_view path) {
  if (route.spanning) {
    return FanOut([&](XsStore& shard) { return shard.Mkdir(caller, path); });
  }
  return shards_[route.shard]->Mkdir(caller, path);
}

Status XsShardedStore::Remove(DomainId caller, std::string_view path, TxId tx) {
  if (tx != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
    return shards_[handle.shard]->Remove(caller, path, handle.local);
  }
  return Remove(RouteFor(path), caller, path);
}

Status XsShardedStore::Remove(const Route& route, DomainId caller,
                              std::string_view path) {
  if (route.spanning) {
    return FanOut([&](XsStore& shard) { return shard.Remove(caller, path); });
  }
  return shards_[route.shard]->Remove(caller, path);
}

StatusOr<std::vector<std::string>> XsShardedStore::List(DomainId caller,
                                                        std::string_view path,
                                                        TxId tx) {
  if (tx != kNoTransaction) {
    XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
    return shards_[handle.shard]->List(caller, path, handle.local);
  }
  return List(RouteFor(path), caller, path);
}

StatusOr<std::vector<std::string>> XsShardedStore::List(
    const Route& route, DomainId caller, std::string_view path) {
  if (route.spanning && shards_.size() > 1) {
    // The spanning directory's children are scattered across partitions;
    // merge them (sorted, deduplicated — the spanning chain itself exists
    // on every shard).
    std::set<std::string> merged;
    Status first_error = Status::Ok();
    bool any_ok = false;
    for (auto& shard : shards_) {
      StatusOr<std::vector<std::string>> names = shard->List(caller, path);
      if (names.ok()) {
        any_ok = true;
        merged.insert(names->begin(), names->end());
      } else if (first_error.ok()) {
        first_error = names.status();
      }
    }
    if (!any_ok) {
      return first_error;
    }
    return std::vector<std::string>(merged.begin(), merged.end());
  }
  return shards_[route.shard]->List(caller, path);
}

bool XsShardedStore::Exists(DomainId caller, std::string_view path, TxId tx) {
  if (tx != kNoTransaction) {
    const StatusOr<TxHandle> handle = FindTransaction(caller, tx);
    return handle.ok() &&
           shards_[handle->shard]->Exists(caller, path, handle->local);
  }
  const Route route = RouteFor(path);
  if (route.spanning && shards_.size() > 1) {
    for (auto& shard : shards_) {
      if (shard->Exists(caller, path)) {
        return true;
      }
    }
    return false;
  }
  return shards_[route.shard]->Exists(caller, path);
}

StatusOr<XsNodePerms> XsShardedStore::GetPerms(DomainId caller,
                                               std::string_view path) {
  return shards_[ShardIndexForPath(path)]->GetPerms(caller, path);
}

Status XsShardedStore::SetPerms(DomainId caller, std::string_view path,
                                const XsNodePerms& perms) {
  return SetPerms(RouteFor(path), caller, path, perms);
}

Status XsShardedStore::SetPerms(const Route& route, DomainId caller,
                                std::string_view path,
                                const XsNodePerms& perms) {
  if (route.spanning && shards_.size() > 1) {
    return FanOut(
        [&](XsStore& shard) { return shard.SetPerms(caller, path, perms); });
  }
  return shards_[route.shard]->SetPerms(caller, path, perms);
}

// --- Watches ----------------------------------------------------------------

Status XsShardedStore::Watch(DomainId caller, std::string_view path,
                             std::string_view token, WatchCallback cb) {
  return Watch(RouteFor(path), caller, path, token, std::move(cb));
}

Status XsShardedStore::Watch(const Route& route, DomainId caller,
                             std::string_view path, std::string_view token,
                             WatchCallback cb) {
  if (!route.spanning || shards_.size() == 1) {
    return shards_[route.shard]->Watch(caller, path, token, std::move(cb));
  }
  // A spanning watch must observe mutations on every partition, so it
  // registers on all of them. Only the shard-0 registration delivers the
  // xenstored-style immediate fire; the other registrations' synchronous
  // fire is suppressed so the watcher sees exactly one.
  m_fanouts_->Increment();
  Status first = shards_[0]->Watch(caller, path, token, cb);
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    auto suppress = std::make_shared<bool>(true);
    Status status = shards_[i]->Watch(
        caller, path, token,
        [cb, suppress](const XsWatchEvent& event) {
          if (*suppress) {
            return;
          }
          cb(event);
        });
    *suppress = false;
    if (first.ok() && !status.ok()) {
      first = status;
    }
  }
  return first;
}

Status XsShardedStore::Unwatch(DomainId caller, std::string_view path,
                               std::string_view token) {
  return Unwatch(RouteFor(path), caller, path, token);
}

Status XsShardedStore::Unwatch(const Route& route, DomainId caller,
                               std::string_view path, std::string_view token) {
  if (!route.spanning || shards_.size() == 1) {
    return shards_[route.shard]->Unwatch(caller, path, token);
  }
  Status first_error = Status::Ok();
  bool any_ok = false;
  for (auto& shard : shards_) {
    Status status = shard->Unwatch(caller, path, token);
    if (status.ok()) {
      any_ok = true;
    } else if (first_error.ok()) {
      first_error = status;
    }
  }
  return any_ok ? Status::Ok() : first_error;
}

std::size_t XsShardedStore::WatchCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->WatchCount();
  }
  return total;
}

// --- Transactions -----------------------------------------------------------

StatusOr<XsShardedStore::TxId> XsShardedStore::TransactionStart(
    DomainId caller) {
  const int shard = ShardIndexForDomain(caller);
  XOAR_ASSIGN_OR_RETURN(TxId local, shards_[shard]->TransactionStart(caller));
  const TxId id = next_tx_++;
  tx_map_.emplace(id, TxHandle{caller, shard, local});
  return id;
}

StatusOr<XsShardedStore::TxHandle> XsShardedStore::FindTransaction(
    DomainId caller, TxId tx) const {
  auto it = tx_map_.find(tx);
  if (it == tx_map_.end() || it->second.caller != caller) {
    return NotFoundError("no such transaction");
  }
  return it->second;
}

Status XsShardedStore::TransactionEnd(DomainId caller, TxId tx, bool commit) {
  // A foreign attempt stops here, so it cannot retire the owner's handle.
  XOAR_ASSIGN_OR_RETURN(const TxHandle handle, FindTransaction(caller, tx));
  tx_map_.erase(tx);
  return shards_[handle.shard]->TransactionEnd(caller, handle.local, commit);
}

int XsShardedStore::ShardOfTransaction(DomainId caller, TxId tx) const {
  const StatusOr<TxHandle> handle = FindTransaction(caller, tx);
  return handle.ok() ? handle->shard : -1;
}

void XsShardedStore::AbortTransactionsOf(DomainId caller) {
  for (auto it = tx_map_.begin(); it != tx_map_.end();) {
    const TxHandle& handle = it->second;
    if (handle.caller == caller) {
      (void)shards_[handle.shard]->TransactionEnd(caller, handle.local,
                                                  /*commit=*/false);
      it = tx_map_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- State shipping ---------------------------------------------------------

std::vector<XsShardedStore::FlatNode> XsShardedStore::Serialize() const {
  std::vector<FlatNode> merged;
  for (const auto& shard : shards_) {
    std::vector<FlatNode> part = shard->Serialize();
    merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlatNode& a, const FlatNode& b) {
                     return a.path < b.path;
                   });
  // The spanning ancestor chain exists on every shard; keep one copy.
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const FlatNode& a, const FlatNode& b) {
                             return a.path == b.path;
                           }),
               merged.end());
  return merged;
}

void XsShardedStore::Restore(const std::vector<FlatNode>& nodes) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::vector<FlatNode> part;
    for (const FlatNode& node : nodes) {
      const Route route = RouteFor(node.path);
      if (route.spanning || route.shard == static_cast<int>(i)) {
        part.push_back(node);
      }
    }
    shards_[i]->Restore(part);
  }
}

XsShardedStore::Snapshot XsShardedStore::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.shards_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snapshot.shards_.push_back(shard->TakeSnapshot());
  }
  return snapshot;
}

void XsShardedStore::RestoreSnapshot(const Snapshot& snapshot) {
  if (snapshot.shards_.size() != shards_.size()) {
    return;  // taken under a different partitioning; not applicable
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->RestoreSnapshot(snapshot.shards_[i]);
  }
}

XsStore::Snapshot XsShardedStore::TakeShardSnapshot(int index) const {
  return shards_[index]->TakeSnapshot();
}

void XsShardedStore::RestoreShardSnapshot(int index,
                                          const XsStore::Snapshot& snapshot) {
  shards_[index]->RestoreSnapshot(snapshot);
}

void XsShardedStore::DropShardVolatileState(int index) {
  shards_[index]->DropVolatileState();
  for (auto it = tx_map_.begin(); it != tx_map_.end();) {
    if (it->second.shard == index) {
      it = tx_map_.erase(it);
    } else {
      ++it;
    }
  }
}

void XsShardedStore::Reshard(int new_shard_count) {
  if (new_shard_count < 1) {
    new_shard_count = 1;
  }
  const std::vector<FlatNode> contents = Serialize();
  shards_.clear();
  tx_map_.clear();
  for (int i = 0; i < new_shard_count; ++i) {
    auto store = std::make_unique<XsStore>(obs_);
    ApplyConfig(store.get());
    shards_.push_back(std::move(store));
  }
  Restore(contents);
  m_shard_count_->Set(static_cast<double>(shards_.size()));
  m_reshards_->Increment();
}

// --- Aggregated introspection ------------------------------------------------

std::uint64_t XsShardedStore::generation() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->generation();
  }
  return total;
}

std::uint64_t XsShardedStore::op_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->op_count();
  }
  return total;
}

std::size_t XsShardedStore::NodeCount() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->NodeCount();
  }
  return total;
}

std::size_t XsShardedStore::NodesOwnedBy(DomainId domain) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->NodesOwnedBy(domain);
  }
  return total;
}

std::uint64_t XsShardedStore::cow_copies() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->cow_copies();
  }
  return total;
}

std::uint64_t XsShardedStore::entries_visited() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->entries_visited();
  }
  return total;
}

}  // namespace xoar
