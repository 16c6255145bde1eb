#include "src/xs/service.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {
namespace {

const Status& StatusOf(const Status& status) { return status; }

template <typename T>
const Status& StatusOf(const StatusOr<T>& result) {
  return result.status();
}

}  // namespace

XenStoreService::XenStoreService(Hypervisor* hv, Simulator* sim, Obs* obs)
    : hv_(hv),
      sim_(sim),
      obs_(obs),
      m_requests_(obs_->metrics().GetCounter("xenstore.service.requests")),
      m_logic_restarts_(
          obs_->metrics().GetCounter("xenstore.service.logic_restarts")),
      m_shard_restarts_(obs_->metrics().GetCounter("xs.shard.restarts")),
      store_(obs_) {}

void XenStoreService::SetShardCount(int count) { store_.Reshard(count); }

void XenStoreService::DeploySplit(
    DomainId logic_domain, const std::vector<DomainId>& state_domains) {
  logic_domain_ = logic_domain;
  monolithic_ = false;
  logic_available_ = true;
  store_.AddManagerDomain(logic_domain);
  for (DomainId state : state_domains) {
    store_.AddManagerDomain(state);
  }
}

void XenStoreService::DeployMonolithic(DomainId control_domain) {
  logic_domain_ = control_domain;
  monolithic_ = true;
  logic_available_ = true;
  store_.AddManagerDomain(control_domain);
}

Status XenStoreService::Connect(DomainId client) {
  if (!deployed()) {
    return FailedPreconditionError("XenStore service not deployed");
  }
  if (IsConnected(client)) {
    return AlreadyExistsError(
        StrFormat("dom%u already connected to XenStore", client.value()));
  }
  Connection conn;
  if (client == logic_domain_) {
    // The service does not connect to itself; it owns the store.
    AddConnection(client, conn);
    return Status::Ok();
  }
  XOAR_RETURN_IF_ERROR(
      conn.ring.Establish(hv_, logic_domain_, client, monolithic_));
  AddConnection(client, conn);
  XLOG(kDebug) << "[xs] dom" << client.value() << " connected";
  return Status::Ok();
}

void XenStoreService::AddConnection(DomainId client, const Connection& conn) {
  if (client.value() >= connections_.size()) {
    connections_.resize(static_cast<std::size_t>(client.value()) + 1);
  }
  connections_[client.value()] = conn;
  connections_[client.value()].open = true;
}

bool XenStoreService::IsConnected(DomainId client) const {
  return client.value() < connections_.size() &&
         connections_[client.value()].open;
}

void XenStoreService::Disconnect(DomainId client) {
  if (!IsConnected(client)) {
    return;
  }
  // The logic domain's own row holds no ring, grant or ports, so releasing
  // it is a no-op.
  Connection& conn = connections_[client.value()];
  store_.DropClient(client, conn.watches);
  conn.ring.Release(hv_, logic_domain_, client);
  conn = Connection{};
}

void XenStoreService::RetryWhileUnavailable(std::function<Status()> request,
                                            ExponentialBackoff backoff) {
  if (request().code() != StatusCode::kUnavailable) {
    return;
  }
  const SimDuration delay = backoff.NextDelay();
  sim_->ScheduleAfter(delay, [this, request = std::move(request),
                              backoff]() mutable {
    RetryWhileUnavailable(std::move(request), backoff);
  });
}

Status XenStoreService::CheckRequest(DomainId caller) {
  if (!deployed()) {
    return FailedPreconditionError("XenStore service not deployed");
  }
  if (!logic_available_) {
    return UnavailableError("XenStore-Logic is restarting");
  }
  const Domain* logic = hv_->domain(logic_domain_);
  if (logic == nullptr || logic->state() != DomainState::kRunning) {
    return UnavailableError("XenStore domain is not running");
  }
  if (!IsConnected(caller)) {
    return FailedPreconditionError(
        StrFormat("dom%u has no XenStore connection", caller.value()));
  }
  if (request_fault_hook_ && request_fault_hook_(caller)) {
    return UnavailableError("XenStore request timed out (injected fault)");
  }
  return Status::Ok();
}

template <typename Result>
Result XenStoreService::Served(Result result) {
  if (StatusOf(result).code() != StatusCode::kUnavailable) {
    NoteRequestServed();
  }
  return result;
}

void XenStoreService::NoteRequestServed() {
  ++requests_processed_;
  m_requests_->Increment();
  if (restart_policy_ == RestartPolicy::kPerRequest) {
    // Fig 5.1: XenStore-Logic rolls back to its post-boot snapshot after
    // every request. Logic holds no state of its own -- the contents live
    // in XenStore-State -- so the rollback has nothing to checkpoint or
    // restore and nothing is renegotiated; only the restart is counted.
    ++logic_restarts_;
    m_logic_restarts_->Increment();
  }
}

StatusOr<std::string> XenStoreService::Read(DomainId caller,
                                            std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Read(caller, path));
}

Status XenStoreService::Write(DomainId caller, std::string_view path,
                              std::string_view value) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Write(caller, path, value));
}

Status XenStoreService::Mkdir(DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Mkdir(caller, path));
}

Status XenStoreService::Remove(DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Remove(caller, path));
}

StatusOr<std::vector<std::string>> XenStoreService::List(
    DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.List(caller, path));
}

Status XenStoreService::SetPerms(DomainId caller, std::string_view path,
                                 const XsNodePerms& perms) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.SetPerms(caller, path, perms));
}

Status XenStoreService::Watch(DomainId caller, std::string_view path,
                              std::string_view token,
                              XsStore::WatchCallback cb) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  // Watch registrations live in the store itself (XenStore-State), so they
  // survive Logic restarts. Deliveries are asynchronous.
  Simulator* sim = sim_;
  XOAR_RETURN_IF_ERROR(Served(store_.Watch(
      caller, path, token,
      [sim, cb = std::move(cb)](const XsWatchEvent& event) {
        sim->ScheduleAfter(kXsWatchLatency, [cb, event] { cb(event); });
      })));
  connections_[caller.value()].watches.emplace(path, token);
  return Status::Ok();
}

Status XenStoreService::Unwatch(DomainId caller, std::string_view path,
                                std::string_view token) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(Served(store_.Unwatch(caller, path, token)));
  connections_[caller.value()].watches.erase(
      {std::string(path), std::string(token)});
  return Status::Ok();
}

StatusOr<XsStore::TxId> XenStoreService::TransactionStart(DomainId caller) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.TransactionStart(caller));
}

Status XenStoreService::TransactionEnd(DomainId caller, XsStore::TxId tx,
                                       bool commit) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.TransactionEnd(caller, tx, commit));
}

StatusOr<std::string> XenStoreService::ReadTx(DomainId caller,
                                              std::string_view path,
                                              XsStore::TxId tx) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Read(caller, path, tx));
}

Status XenStoreService::WriteTx(DomainId caller, std::string_view path,
                                std::string_view value, XsStore::TxId tx) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  return Served(store_.Write(caller, path, value, tx));
}

Status XenStoreService::BeginLogicRestart() {
  if (!deployed() || monolithic_) {
    return FailedPreconditionError("no restartable XenStore-Logic deployed");
  }
  if (!logic_available_) {
    return FailedPreconditionError("XenStore-Logic already restarting");
  }
  logic_available_ = false;
  ++logic_restarts_;
  m_logic_restarts_->Increment();
  return Status::Ok();
}

Status XenStoreService::CompleteLogicRestart() {
  if (logic_available_) {
    return FailedPreconditionError("XenStore-Logic is not restarting");
  }
  // XenStore-Logic re-attaches to the contents held by XenStore-State
  // (§5.1), which requests could not reach meanwhile.
  logic_available_ = true;
  return Status::Ok();
}

Status XenStoreService::BeginStateShardRestart(int shard) {
  if (!deployed() || monolithic_) {
    return FailedPreconditionError("no restartable XenStore-State deployed");
  }
  XOAR_RETURN_IF_ERROR(store_.BeginShardRestart(shard));
  ++state_shard_restarts_;
  m_shard_restarts_->Increment();
  return Status::Ok();
}

Status XenStoreService::CompleteStateShardRestart(int shard) {
  return store_.CompleteShardRestart(shard);
}

}  // namespace xoar
