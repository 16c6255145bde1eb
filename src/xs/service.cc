#include "src/xs/service.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

XenStoreService::XenStoreService(Hypervisor* hv, Simulator* sim, Obs* obs)
    : hv_(hv),
      sim_(sim),
      obs_(obs),
      m_requests_(obs_->metrics().GetCounter("xenstore.service.requests")),
      m_logic_restarts_(
          obs_->metrics().GetCounter("xenstore.service.logic_restarts")),
      m_shard_restarts_(obs_->metrics().GetCounter("xs.shard.restarts")),
      m_shard_rejects_(
          obs_->metrics().GetCounter("xs.shard.unavailable_rejects")),
      store_(obs_) {}

void XenStoreService::SetShardCount(int count) {
  store_.Reshard(count);
  shard_available_.assign(store_.shard_count(), true);
  shard_pre_restart_.assign(store_.shard_count(), XsStore::Snapshot());
}

void XenStoreService::DeploySplit(DomainId logic_domain,
                                  DomainId state_domain) {
  DeploySplit(logic_domain, std::vector<DomainId>{state_domain});
}

void XenStoreService::DeploySplit(
    DomainId logic_domain, const std::vector<DomainId>& state_domains) {
  logic_domain_ = logic_domain;
  state_domains_ = state_domains;
  state_domain_ =
      state_domains.empty() ? DomainId::Invalid() : state_domains.front();
  monolithic_ = false;
  logic_available_ = true;
  shard_available_.assign(store_.shard_count(), true);
  shard_pre_restart_.assign(store_.shard_count(), XsStore::Snapshot());
  store_.AddManagerDomain(logic_domain);
  for (DomainId state : state_domains) {
    store_.AddManagerDomain(state);
  }
}

void XenStoreService::DeployMonolithic(DomainId control_domain) {
  logic_domain_ = control_domain;
  state_domain_ = control_domain;
  state_domains_ = {control_domain};
  monolithic_ = true;
  logic_available_ = true;
  shard_available_.assign(store_.shard_count(), true);
  shard_pre_restart_.assign(store_.shard_count(), XsStore::Snapshot());
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
  // One page of the client's memory hosts the communication ring.
  XOAR_ASSIGN_OR_RETURN(conn.ring_pfn,
                        hv_->memory().AllocatePages(client, 1));
  if (monolithic_) {
    // Stock Xen: xenstored uses Dom0 privilege to directly map the ring
    // (§4.4) — no grant entry exists.
    XOAR_ASSIGN_OR_RETURN(
        MappedPage page,
        // xoar-flow: allow(privilege_flow): stock-xenstored §4.4 baseline branch only — Xoar mode uses the Builder-created grant below
        hv_->ForeignMap(logic_domain_, client, conn.ring_pfn));
    (void)page;
  } else {
    // Xoar: the Builder pre-creates a grant entry so a *deprivileged*
    // XenStore can map the ring (§5.6). The grant/map calls below run the
    // hypervisor's shard-sharing checks.
    XOAR_ASSIGN_OR_RETURN(
        conn.ring_gref,
        hv_->GrantAccess(client, logic_domain_, conn.ring_pfn,
                         /*writable=*/true));
    XOAR_ASSIGN_OR_RETURN(MappedPage page,
                          hv_->MapGrant(logic_domain_, client, conn.ring_gref));
    (void)page;
  }
  XOAR_ASSIGN_OR_RETURN(conn.client_port,
                        hv_->EvtchnAllocUnbound(client, logic_domain_));
  XOAR_ASSIGN_OR_RETURN(
      conn.server_port,
      hv_->EvtchnBindInterdomain(logic_domain_, client, conn.client_port));
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
  Connection& conn = connections_[client.value()];
  // Release what Connect took, in reverse. The logic domain's own row
  // holds no ring, grant or ports.
  if (client != logic_domain_) {
    (void)hv_->EvtchnClose(logic_domain_, conn.server_port);
    (void)hv_->EvtchnClose(client, conn.client_port);
    bool ring_released = true;
    if (conn.ring_gref.valid()) {
      (void)hv_->UnmapGrant(logic_domain_, client, conn.ring_gref);
      // A grant still mapped (XenStore-Logic crashed and could not unmap)
      // keeps naming the page, so the page stays until the client's
      // domain is destroyed.
      ring_released = hv_->EndGrantAccess(client, conn.ring_gref).ok();
    }
    if (ring_released) {
      (void)hv_->memory().FreeSpecificPages(client, conn.ring_pfn, 1);
    }
  }
  conn = Connection{};
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

Status XenStoreService::CheckShard(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shard_available_.size())) {
    return Status::Ok();  // unknown partition resolves in the store layer
  }
  if (!shard_available_[shard]) {
    m_shard_rejects_->Increment();
    return UnavailableError(
        StrFormat("XenStore-State shard %d is restarting", shard));
  }
  return Status::Ok();
}

Status XenStoreService::CheckShardForPath(std::string_view path) {
  if (XsShardedStore::IsSpanningPath(path)) {
    // Spanning prefixes fan out (mutations) or merge (listings): every
    // partition must be up.
    for (int i = 0; i < static_cast<int>(shard_available_.size()); ++i) {
      XOAR_RETURN_IF_ERROR(CheckShard(i));
    }
    return Status::Ok();
  }
  return CheckShard(store_.ShardIndexForPath(path));
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

void XenStoreService::FinishLogicRestart() {
  // XenStore-Logic re-attaches to the contents held by XenStore-State
  // (§5.1). Requests were gated while Logic was down, so the checkpoint is
  // the current state and re-attaching is an O(1) no-op — the COW snapshot
  // replaces the old full Serialize/Restore round trip.
  store_.RestoreSnapshot(pre_restart_state_);
  pre_restart_state_ = XsShardedStore::Snapshot();
  logic_available_ = true;
}

StatusOr<std::string> XenStoreService::Read(DomainId caller,
                                            std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.Read(caller, path);
}

Status XenStoreService::Write(DomainId caller, std::string_view path,
                              std::string_view value) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.Write(caller, path, value);
}

Status XenStoreService::Mkdir(DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.Mkdir(caller, path);
}

Status XenStoreService::Remove(DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.Remove(caller, path);
}

StatusOr<std::vector<std::string>> XenStoreService::List(
    DomainId caller, std::string_view path) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.List(caller, path);
}

Status XenStoreService::SetPerms(DomainId caller, std::string_view path,
                                 const XsNodePerms& perms) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.SetPerms(caller, path, perms);
}

Status XenStoreService::Watch(DomainId caller, std::string_view path,
                              std::string_view token,
                              XsStore::WatchCallback cb) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  // Watch registrations live in the store itself (XenStore-State), so they
  // survive Logic restarts. Deliveries are asynchronous.
  Simulator* sim = sim_;
  return store_.Watch(
      caller, path, token,
      [sim, cb = std::move(cb)](const XsWatchEvent& event) {
        sim->ScheduleAfter(kXsWatchLatency, [cb, event] { cb(event); });
      });
}

Status XenStoreService::Unwatch(DomainId caller, std::string_view path,
                                std::string_view token) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShardForPath(path));
  NoteRequestServed();
  return store_.Unwatch(caller, path, token);
}

StatusOr<XsStore::TxId> XenStoreService::TransactionStart(DomainId caller) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShard(store_.ShardIndexForDomain(caller)));
  NoteRequestServed();
  return store_.TransactionStart(caller);
}

Status XenStoreService::TransactionEnd(DomainId caller, XsStore::TxId tx,
                                       bool commit) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShard(store_.ShardOfTransaction(tx)));
  NoteRequestServed();
  return store_.TransactionEnd(caller, tx, commit);
}

StatusOr<std::string> XenStoreService::ReadTx(DomainId caller,
                                              std::string_view path,
                                              XsStore::TxId tx) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShard(store_.ShardOfTransaction(tx)));
  NoteRequestServed();
  return store_.Read(caller, path, tx);
}

Status XenStoreService::WriteTx(DomainId caller, std::string_view path,
                                std::string_view value, XsStore::TxId tx) {
  XOAR_RETURN_IF_ERROR(CheckRequest(caller));
  XOAR_RETURN_IF_ERROR(CheckShard(store_.ShardOfTransaction(tx)));
  NoteRequestServed();
  return store_.Write(caller, path, value, tx);
}

Status XenStoreService::BeginLogicRestart() {
  if (!deployed() || monolithic_) {
    return FailedPreconditionError("no restartable XenStore-Logic deployed");
  }
  if (!logic_available_) {
    return FailedPreconditionError("XenStore-Logic already restarting");
  }
  pre_restart_state_ = store_.TakeSnapshot();
  logic_available_ = false;
  ++logic_restarts_;
  m_logic_restarts_->Increment();
  return Status::Ok();
}

Status XenStoreService::CompleteLogicRestart() {
  if (logic_available_) {
    return FailedPreconditionError("XenStore-Logic is not restarting");
  }
  FinishLogicRestart();
  return Status::Ok();
}

Status XenStoreService::BeginStateShardRestart(int shard) {
  if (!deployed() || monolithic_) {
    return FailedPreconditionError("no restartable XenStore-State deployed");
  }
  if (shard < 0 || shard >= static_cast<int>(shard_available_.size())) {
    return InvalidArgumentError(
        StrFormat("no such XenStore-State shard: %d", shard));
  }
  if (!shard_available_[shard]) {
    return FailedPreconditionError(
        StrFormat("XenStore-State shard %d already restarting", shard));
  }
  // Recovery box (§3.3): the shard's contents are checkpointed before the
  // microreboot and re-attached on the way back up. Volatile tenant state
  // (watches, in-flight transactions) does not survive.
  shard_pre_restart_[shard] = store_.TakeShardSnapshot(shard);
  shard_available_[shard] = false;
  ++state_shard_restarts_;
  m_shard_restarts_->Increment();
  return Status::Ok();
}

Status XenStoreService::CompleteStateShardRestart(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shard_available_.size())) {
    return InvalidArgumentError(
        StrFormat("no such XenStore-State shard: %d", shard));
  }
  if (shard_available_[shard]) {
    return FailedPreconditionError(
        StrFormat("XenStore-State shard %d is not restarting", shard));
  }
  store_.RestoreShardSnapshot(shard, shard_pre_restart_[shard]);
  shard_pre_restart_[shard] = XsStore::Snapshot();
  // The fresh shard has no watch registrations or live transactions —
  // exactly 1/N of the tenants renegotiate, the rest never notice.
  store_.DropShardVolatileState(shard);
  shard_available_[shard] = true;
  return Status::Ok();
}

}  // namespace xoar
