// The XenStore service as deployed on a platform.
//
// Stock Xen: a single xenstored in Dom0, which directly foreign-maps every
// client's communication ring (it starts before grant tables are usable,
// §4.4). Xoar: the service is split into XenStore-Logic (stateless request
// processing, restartable — even per request) and XenStore-State (the
// long-lived in-memory contents), and the Builder pre-creates grant entries
// so the service runs *without* Dom0-class privileges (§5.6).
//
// Clients connect once (ring + event channel via the hypervisor, which
// applies the shard-sharing policy) and then issue requests. While the
// Logic component microreboots, requests fail with UNAVAILABLE and clients
// retry — the renegotiation behaviour the restart machinery depends on.
//
// For cloud-density hosts, XenStore-State is additionally partitioned into
// N path-prefix shards (src/xs/sharded_store.h, SCALING.md): each shard is
// an independently microrebootable store, and a single State-shard restart
// only stalls requests routed to that partition — tenants on the other
// N-1 shards are served throughout.
#ifndef XOAR_SRC_XS_SERVICE_H_
#define XOAR_SRC_XS_SERVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hv/hypervisor.h"
#include "src/xs/sharded_store.h"
#include "src/xs/store.h"

namespace xoar {

// Latency of one XenStore request/response round trip over the ring.
constexpr SimDuration kXsOpLatency = 20 * kMicrosecond;
// Latency of a watch event delivery.
constexpr SimDuration kXsWatchLatency = 30 * kMicrosecond;

class XenStoreService {
 public:
  enum class RestartPolicy {
    kNever,       // stock xenstored
    kPerRequest,  // XenStore-Logic in Xoar (Fig 5.1: "restarted on each
                  // request"); every request counts one Logic restart
  };

  // `obs` is forwarded to the backing XsStore and receives
  // `xenstore.service.*` counters.
  XenStoreService(Hypervisor* hv, Simulator* sim, Obs* obs);

  // Partitions XenStore-State into `count` path-prefix shards. Call before
  // DeploySplit (resharding drops watches and live transactions, so doing
  // it on a live host is a reshard event, not a config tweak).
  void SetShardCount(int count);

  // Xoar deployment: logic and state in separate shard domains.
  void DeploySplit(DomainId logic_domain, DomainId state_domain);
  // Cloud-density deployment: one State domain per store partition.
  void DeploySplit(DomainId logic_domain,
                   const std::vector<DomainId>& state_domains);
  // Stock deployment: xenstored inside the control domain.
  void DeployMonolithic(DomainId control_domain);

  DomainId logic_domain() const { return logic_domain_; }
  DomainId state_domain() const { return state_domain_; }
  const std::vector<DomainId>& state_domains() const { return state_domains_; }
  bool deployed() const { return logic_domain_.valid(); }

  XsShardedStore& store() { return store_; }

  void set_restart_policy(RestartPolicy policy) { restart_policy_ = policy; }

  // Establishes a client connection: one shared page granted (or foreign-
  // mapped in stock mode) from the client to the logic domain plus an event
  // channel pair. The hypervisor's IVC policy decides admissibility.
  Status Connect(DomainId client);
  bool IsConnected(DomainId client) const;
  // Tears down a client's connection (domain destroyed) and releases what
  // Connect allocated: both ports, the grant and its mapping, the page.
  void Disconnect(DomainId client);

  // --- Request interface (checked against the connection + store ACLs) ---

  StatusOr<std::string> Read(DomainId caller, std::string_view path);
  Status Write(DomainId caller, std::string_view path, std::string_view value);
  Status Mkdir(DomainId caller, std::string_view path);
  Status Remove(DomainId caller, std::string_view path);
  StatusOr<std::vector<std::string>> List(DomainId caller,
                                          std::string_view path);
  Status SetPerms(DomainId caller, std::string_view path,
                  const XsNodePerms& perms);

  // Watch events are delivered asynchronously through the simulator.
  Status Watch(DomainId caller, std::string_view path, std::string_view token,
               XsStore::WatchCallback cb);
  Status Unwatch(DomainId caller, std::string_view path,
                 std::string_view token);

  StatusOr<XsStore::TxId> TransactionStart(DomainId caller);
  Status TransactionEnd(DomainId caller, XsStore::TxId tx, bool commit);
  StatusOr<std::string> ReadTx(DomainId caller, std::string_view path,
                               XsStore::TxId tx);
  Status WriteTx(DomainId caller, std::string_view path,
                 std::string_view value, XsStore::TxId tx);

  // --- Microreboot of XenStore-Logic ---
  //
  // Split-phase; the caller (the RestartEngine, the Watchdog) owns the
  // timing. Begin takes the logic component down: requests meanwhile fail
  // with UNAVAILABLE. Complete re-attaches it to the state component, where
  // the store contents, watch registrations and connections survived.
  Status BeginLogicRestart();
  Status CompleteLogicRestart();
  bool logic_available() const { return logic_available_; }

  // --- Microreboot of one XenStore-State shard ---
  //
  // Only requests routed to the restarting partition fail UNAVAILABLE;
  // tenants on the other shards are served throughout. The shard's
  // contents survive (recovery-box snapshot taken at Begin); its tenants'
  // watches and in-flight transactions are dropped and re-registered by
  // clients, exactly as after a Logic restart loses a connection.
  Status BeginStateShardRestart(int shard);
  Status CompleteStateShardRestart(int shard);
  int state_shard_count() const { return store_.shard_count(); }
  bool state_shard_available(int shard) const {
    return shard >= 0 && shard < static_cast<int>(shard_available_.size()) &&
           shard_available_[shard];
  }
  std::uint64_t state_shard_restarts() const { return state_shard_restarts_; }

  std::uint64_t requests_processed() const { return requests_processed_; }
  std::uint64_t logic_restarts() const { return logic_restarts_; }

  // Fault-injection hook (src/fault), consulted per request after the
  // deployment/availability/connection gates — an injected timeout never
  // masks a real precondition error (DESIGN.md §5c). Returning true fails
  // the request with UNAVAILABLE, indistinguishable from a Logic outage to
  // the caller, which is the point: clients retry both the same way.
  using RequestFaultHook = std::function<bool(DomainId caller)>;
  void set_request_fault_hook(RequestFaultHook hook) {
    request_fault_hook_ = std::move(hook);
  }

 private:
  struct Connection {
    bool open = false;
    Pfn ring_pfn;
    GrantRef ring_gref;  // invalid in stock (foreign-map) mode
    EvtchnPort client_port;
    EvtchnPort server_port;
  };

  // Records `conn` as the client's open connection, growing the table to
  // reach the client's index.
  void AddConnection(DomainId client, const Connection& conn);
  // Gate every request: connection present, logic component up.
  Status CheckRequest(DomainId caller);
  // Gate on the State partition a request routes to. Spanning paths
  // require every shard up (their mutations fan out; their listings
  // merge); per-tenant paths require only their own shard.
  Status CheckShardForPath(std::string_view path);
  Status CheckShard(int shard);
  void NoteRequestServed();
  void FinishLogicRestart();

  Hypervisor* hv_;
  Simulator* sim_;
  Obs* obs_;
  Counter* m_requests_;        // xenstore.service.requests
  Counter* m_logic_restarts_;  // xenstore.service.logic_restarts
  Counter* m_shard_restarts_;  // xs.shard.restarts
  Counter* m_shard_rejects_;   // xs.shard.unavailable_rejects
  XsShardedStore store_;
  DomainId logic_domain_;
  DomainId state_domain_;
  std::vector<DomainId> state_domains_;
  bool monolithic_ = false;
  bool logic_available_ = false;
  RestartPolicy restart_policy_ = RestartPolicy::kNever;
  RequestFaultHook request_fault_hook_;
  // Indexed by domain id, like the hypervisor's domain table. Lookups are
  // bounds-checked and never grow it. Only a successful Connect does (the
  // hypervisor accepted its page, grant and port calls, or the client is
  // the service's own domain), so it never outgrows the host's domain ids.
  std::vector<Connection> connections_;
  // State-component checkpoint taken when Logic goes down; Logic re-attaches
  // to it on the way back up. Taking it is O(1) (copy-on-write root share);
  // re-attaching is a no-op because requests were gated meanwhile.
  XsShardedStore::Snapshot pre_restart_state_;
  // Per-State-shard availability and recovery-box checkpoints.
  std::vector<bool> shard_available_;
  std::vector<XsStore::Snapshot> shard_pre_restart_;
  std::uint64_t requests_processed_ = 0;
  std::uint64_t logic_restarts_ = 0;
  std::uint64_t state_shard_restarts_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_SERVICE_H_
