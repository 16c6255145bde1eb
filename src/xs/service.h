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
// N-1 shards are served throughout. The sharded store holds that shard
// gate; this service holds the connections, the XenStore-Logic gate, the
// fault hook and the request counters.
#ifndef XOAR_SRC_XS_SERVICE_H_
#define XOAR_SRC_XS_SERVICE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/backoff.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hv/hypervisor.h"
#include "src/xs/guest_ring.h"
#include "src/xs/sharded_store.h"
#include "src/xs/store.h"

namespace xoar {

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

  // Xoar deployment: logic and state in separate shard domains, one State
  // domain per store partition.
  void DeploySplit(DomainId logic_domain,
                   const std::vector<DomainId>& state_domains);
  // Stock deployment: xenstored inside the control domain.
  void DeployMonolithic(DomainId control_domain);

  DomainId logic_domain() const { return logic_domain_; }
  bool deployed() const { return logic_domain_.valid(); }

  XsShardedStore& store() { return store_; }

  void set_restart_policy(RestartPolicy policy) { restart_policy_ = policy; }

  // Establishes a client connection: one shared page granted (or foreign-
  // mapped in stock mode) from the client to the logic domain plus an event
  // channel pair. The hypervisor's IVC policy decides admissibility; a
  // refused connection releases whatever it had already taken.
  Status Connect(DomainId client);
  bool IsConnected(DomainId client) const;
  // Tears down a client's connection (domain destroyed). As xenstored does
  // for a departing connection, it drops the client's watches and aborts
  // its open transactions, then releases what Connect allocated: both
  // ports, the grant and its mapping, the page.
  void Disconnect(DomainId client);

  // Runs `request` now and, while XenStore refuses it as UNAVAILABLE,
  // again on the default backoff ladder (staying at its cap) until it is
  // served or refused for another reason. For teardown steps, which must
  // neither fail nor leak because XenStore-Logic happens to be restarting.
  void RetryWhileUnavailable(std::function<Status()> request) {
    RetryWhileUnavailable(std::move(request), ExponentialBackoff());
  }

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
  // with UNAVAILABLE. Complete brings it back up. Logic holds no state of
  // its own: the store contents, watch registrations and connections live
  // on in the state component.
  Status BeginLogicRestart();
  Status CompleteLogicRestart();
  bool logic_available() const { return logic_available_; }

  // --- Microreboot of one XenStore-State shard ---
  //
  // The sharded store's gate (XsShardedStore::BeginShardRestart): only
  // requests routed to the restarting partition fail UNAVAILABLE; tenants
  // on the other shards are served throughout. The shard's contents stay
  // where they are; its tenants' watches and in-flight transactions are
  // dropped at completion. A monolithic deployment has no State shard to
  // restart.
  Status BeginStateShardRestart(int shard);
  Status CompleteStateShardRestart(int shard);
  std::uint64_t state_shard_restarts() const { return state_shard_restarts_; }

  std::uint64_t requests_processed() const { return requests_processed_; }
  std::uint64_t logic_restarts() const { return logic_restarts_; }

  // Fault-injection hook (src/fault), consulted per request after the
  // deployment/Logic/connection gates and before the shard gate — an
  // injected timeout never masks a real precondition error (DESIGN.md
  // §5c). Returning true fails the request with UNAVAILABLE,
  // indistinguishable from a Logic outage to the caller, which is the
  // point: clients retry both the same way.
  using RequestFaultHook = std::function<bool(DomainId caller)>;
  void set_request_fault_hook(RequestFaultHook hook) {
    request_fault_hook_ = std::move(hook);
  }

 private:
  struct Connection {
    bool open = false;
    GuestRing ring;  // foreign-mapped in stock mode
    // The (path, token) of every watch the client registered, so that
    // Disconnect drops them without walking every watch in the store.
    XsShardedStore::WatchKeys watches;
  };

  // Records `conn` as the client's open connection, growing the table to
  // reach the client's index.
  void AddConnection(DomainId client, const Connection& conn);
  // Gate every request: deployed, logic component up, connection present,
  // no injected fault. The store's shard gate comes after it.
  Status CheckRequest(DomainId caller);
  // Counts a request the store ran, unless its shard gate refused it
  // (UNAVAILABLE, which the store answers for no other reason).
  template <typename Result>
  Result Served(Result result);
  void NoteRequestServed();
  void RetryWhileUnavailable(std::function<Status()> request,
                             ExponentialBackoff backoff);

  Hypervisor* hv_;
  Simulator* sim_;
  Obs* obs_;
  Counter* m_requests_;        // xenstore.service.requests
  Counter* m_logic_restarts_;  // xenstore.service.logic_restarts
  Counter* m_shard_restarts_;  // xs.shard.restarts
  XsShardedStore store_;
  DomainId logic_domain_;
  bool monolithic_ = false;
  bool logic_available_ = false;
  RestartPolicy restart_policy_ = RestartPolicy::kNever;
  RequestFaultHook request_fault_hook_;
  // Indexed by domain id, like the hypervisor's domain table. Lookups are
  // bounds-checked and never grow it. Only a successful Connect does (the
  // hypervisor accepted its page, grant and port calls, or the client is
  // the service's own domain), so it never outgrows the host's domain ids.
  std::vector<Connection> connections_;
  std::uint64_t requests_processed_ = 0;
  std::uint64_t logic_restarts_ = 0;
  std::uint64_t state_shard_restarts_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_SERVICE_H_
