// The hypervisor: domain lifecycle, privilege enforcement, memory sharing.
//
// Every cross-domain operation in the simulator funnels through this class
// as a "hypercall" with an explicit caller DomainId; the privilege checks
// here are the mechanism Xoar's design (Chapter 3) relies on:
//
//  * hypercall whitelisting (Fig 3.1: permit_hypercall),
//  * PCI device assignment (Fig 3.1: assign_pci_device),
//  * delegation of shard administration (Fig 3.1: allow_delegation),
//  * the parent-toolstack audit on VM-management hypercalls (§5.6),
//  * the shard-sharing check on grant and event-channel setup (§5.6),
//  * per-guest memory privilege for device-emulation stubs (§5.6).
//
// With `enforce_shard_sharing_policy=false` and a control domain configured,
// the same class behaves like stock Xen with a monolithic Dom0 — the
// baseline platform in the evaluation.
#ifndef XOAR_SRC_HV_HYPERVISOR_H_
#define XOAR_SRC_HV_HYPERVISOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/hv/domain.h"
#include "src/hv/event_channel.h"
#include "src/hv/hypercall.h"
#include "src/hv/memory.h"
#include "src/hv/pci_slot.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"

namespace xoar {

// Hardware resources the hypervisor parcels out at boot (§5.8): stock Xen
// hard-codes these to Dom0; Xoar maps each to the correct shard.
enum class HwCapability : std::uint8_t {
  kSerialConsole = 0,   // console I/O ports + console VIRQ delivery
  kIoPorts,             // legacy I/O-port ranges
  kMmio,                // device MMIO regions
  kInterruptRouting,    // PCI interrupt routing policy
  kPciBusControl,       // PCI configuration space multiplexing
  kCount,
};

std::string_view HwCapabilityName(HwCapability cap);

// Result of mapping another domain's page (foreign map or grant map).
struct MappedPage {
  Pfn pfn;
  std::byte* data = nullptr;
  bool writable = false;
};

class Hypervisor {
 public:
  struct Options {
    // Xoar mode: IVC setup requires shard/delegation relationships (§5.6).
    // Stock Xen mode (false): any two domains may exchange grants/channels.
    bool enforce_shard_sharing_policy = false;
    // Stock Xen assumption: a control-domain crash reboots the host (§5.8).
    bool control_domain_crash_reboots_host = true;
    std::uint64_t total_memory_bytes = 4 * kGiB;
  };

  // Called on every privilege-relevant action; the platform's audit log
  // subscribes here (§3.2.2).
  using AuditHook = std::function<void(const std::string& event)>;

  // `obs` receives hypercall/grant/domain-lifecycle metrics and trace
  // events.
  Hypervisor(Simulator* sim, Options options, Obs* obs);

  Simulator* sim() { return sim_; }
  MemoryManager& memory() { return memory_; }
  EventChannelManager& evtchn() { return evtchn_; }
  const Options& options() const { return options_; }
  Obs* obs() { return obs_; }

  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

  // --- Domain lifecycle ---

  // Creates the initial domain at power-on. Only callable before any other
  // domain exists; bypasses privilege checks the way the real hypervisor
  // constructs Dom0 (stock) or the Bootstrapper (Xoar).
  StatusOr<DomainId> CreateInitialDomain(const DomainConfig& config,
                                         bool as_control_domain);

  // kDomctlCreate. `on_behalf_of`, when valid, becomes the new domain's
  // parent toolstack (the Builder creates VMs for requesting toolstacks);
  // otherwise the caller is recorded as parent.
  StatusOr<DomainId> CreateDomain(DomainId caller, const DomainConfig& config,
                                  DomainId on_behalf_of = DomainId::Invalid());

  // Marks a build complete: kBuilding -> kPaused.
  Status FinishBuild(DomainId caller, DomainId target);

  Status UnpauseDomain(DomainId caller, DomainId target);  // kDomctlUnpause
  Status PauseDomain(DomainId caller, DomainId target);    // kDomctlPause
  Status DestroyDomain(DomainId caller, DomainId target);  // kDomctlDestroy

  // Microreboot transitions (§3.3). BeginReboot tears down the domain's
  // event channels (peers observe broken channels and renegotiate) but, by
  // design, preserves memory: the snapshot/rollback engine in src/core owns
  // the state reset. CompleteReboot returns the domain to kRunning.
  Status BeginReboot(DomainId caller, DomainId target);
  Status CompleteReboot(DomainId caller, DomainId target);

  // Crash reporting. Stock Xen: a control-domain crash is fatal to the host.
  // Xoar modifies this so the Bootstrapper may exit cleanly (§5.8).
  void ReportCrash(DomainId domain);
  bool host_failed() const { return host_failed_; }

  Domain* domain(DomainId id);
  const Domain* domain(DomainId id) const;
  // Materializes the full live-domain list — an O(n) walk of the domain
  // table. Control-plane hot paths (create/destroy) must not call this; the
  // density bench asserts domain_table_scans() stays flat across a sweep.
  std::vector<DomainId> AllDomains() const;
  // O(1): maintained incrementally on every alive<->dead transition.
  std::size_t LiveDomainCount() const { return live_count_; }

  // --- Fig 3.1 privilege-assignment API ---

  // assign_pci_device(PCI domain, bus, slot): validates the device is not
  // already assigned, then passes it through to `target`.
  Status AssignPciDevice(DomainId caller, DomainId target, const PciSlot& slot);

  // permit_hypercall(hypercall id): whitelists a privileged hypercall.
  // Only shards may be given extra privilege (§3.1).
  Status PermitHypercall(DomainId caller, DomainId target, Hypercall hc);

  // allow_delegation(guest id): delegates administration of shard `target`
  // to toolstack `toolstack`.
  Status AllowDelegation(DomainId caller, DomainId target, DomainId toolstack);

  // Flags `subject` as privileged for `target`'s memory (QemuVM DMA, §5.6).
  Status SetPrivilegedFor(DomainId caller, DomainId subject, DomainId target);

  // Toolstack links a guest to a shard it may consume. Audited: the caller
  // must manage the guest, and the shard must be delegated to the caller
  // (or the caller is the control domain).
  Status AuthorizeShardUse(DomainId caller, DomainId guest, DomainId shard);

  // --- Hardware capabilities (§5.8) ---
  Status GrantHwCapability(DomainId caller, DomainId target, HwCapability cap);
  DomainId HwCapabilityHolder(HwCapability cap) const;
  // kPhysdevOp-class check used by device backends.
  Status CheckHwCapability(DomainId caller, HwCapability cap) const;

  // --- Memory ---

  // Allocates pages for `target` during its build (kForeignMemoryMap class).
  StatusOr<Pfn> PopulateDomainMemory(DomainId caller, DomainId target,
                                     std::uint64_t bytes);

  // Maps a page of `target` into `caller` (Dom0 tools, Builder, QemuVM).
  StatusOr<MappedPage> ForeignMap(DomainId caller, DomainId target, Pfn pfn);

  // Ballooning (kMemoryOp): a guest shrinks its own reservation, returning
  // the tail of its allocation to the free pool, or reclaims previously
  // ballooned-out memory (subject to availability). This is the mechanism
  // behind the memory-overcommit features of §1.
  Status BalloonDown(DomainId caller, std::uint64_t mb);
  Status BalloonUp(DomainId caller, std::uint64_t mb);

  // --- Grant table operations (kGrantTableOp) ---

  StatusOr<GrantRef> GrantAccess(DomainId caller, DomainId grantee, Pfn pfn,
                                 bool writable);
  StatusOr<MappedPage> MapGrant(DomainId caller, DomainId owner, GrantRef ref);
  Status UnmapGrant(DomainId caller, DomainId owner, GrantRef ref);
  Status EndGrantAccess(DomainId caller, GrantRef ref);

  // Fault-injection hook (src/fault), consulted by MapGrant after every
  // privilege and grantee check has passed — injected failures never mask a
  // real denial (DESIGN.md §5c). Returning true fails the map with
  // UNAVAILABLE, the retryable code backends treat as "try again later".
  using GrantMapFaultHook = std::function<bool(DomainId caller, DomainId owner)>;
  void set_grant_map_fault_hook(GrantMapFaultHook hook) {
    grant_map_fault_hook_ = std::move(hook);
  }

  // --- Event channel operations (kEventChannelOp) ---

  StatusOr<EvtchnPort> EvtchnAllocUnbound(DomainId caller, DomainId remote);
  StatusOr<EvtchnPort> EvtchnBindInterdomain(DomainId caller, DomainId remote,
                                             EvtchnPort remote_port);
  Status EvtchnSend(DomainId caller, EvtchnPort port);
  Status EvtchnSetHandler(DomainId caller, EvtchnPort port,
                          EventChannelManager::Handler handler);
  Status EvtchnClose(DomainId caller, EvtchnPort port);
  StatusOr<EvtchnPort> BindVirq(DomainId caller, Virq virq);
  Status RaiseVirq(DomainId target, Virq virq);  // hypervisor-internal

  // --- Introspection / statistics ---

  std::uint64_t HypercallCount(Hypercall hc) const {
    return hypercall_counts_[static_cast<std::size_t>(hc)];
  }
  std::uint64_t TotalHypercalls() const;
  std::uint64_t denied_hypercalls() const { return denied_; }
  // Number of full domain-table walks performed (AllDomains and friends).
  // The density bench reads the delta across a create sweep to prove no
  // O(n) scan remains on the guest create/destroy path.
  std::uint64_t domain_table_scans() const { return domain_table_scans_; }

  // Exposed for tests: the raw policy checks.
  Status CheckHypercall(DomainId caller, Hypercall hc);
  Status CheckManagement(DomainId caller, DomainId target) const;
  Status CheckIvcAllowed(DomainId a, DomainId b) const;

 private:
  Status CheckCallerAlive(DomainId caller) const;
  void Audit(const std::string& event);
  DomainId NextDomainId();
  // Enters a new live domain into the table; returns its id.
  DomainId AddDomain(std::unique_ptr<Domain> dom);

  Simulator* sim_;
  Options options_;
  Obs* obs_;
  // Metric handles cached at construction so hot paths never re-resolve
  // names (see src/obs/metrics.h on the cost model).
  Counter* m_hypercalls_;       // hv.hypercall.total
  Counter* m_denied_;           // hv.hypercall.denied
  Counter* m_grant_creates_;    // hv.grant.creates
  Counter* m_grant_maps_;       // hv.grant.maps
  Counter* m_grant_unmaps_;     // hv.grant.unmaps
  Counter* m_domain_creates_;   // hv.domain.creates
  Counter* m_domain_destroys_;  // hv.domain.destroys
  Gauge* m_domains_live_;       // hv.domain.live
  MemoryManager memory_;
  EventChannelManager evtchn_;
  // Indexed by domain id. Ids are never reused and dead domains are never
  // dropped, so an id resolves for the life of the host; an id that was
  // never created (a failed create leaves a gap) resolves to nullptr.
  std::vector<std::unique_ptr<Domain>> domains_;
  std::size_t live_count_ = 0;
  // PCI assignment index: slot -> owning domain, so assign_pci_device's
  // already-assigned check (§3.1) is a lookup, not a domain-table scan.
  std::map<PciSlot, DomainId> pci_owner_;
  mutable std::uint64_t domain_table_scans_ = 0;
  std::array<DomainId, static_cast<std::size_t>(HwCapability::kCount)>
      hw_capability_holder_;
  std::array<std::uint64_t, kHypercallCount> hypercall_counts_{};
  std::uint64_t denied_ = 0;
  std::uint32_t next_domid_ = 0;
  bool host_failed_ = false;
  AuditHook audit_hook_;
  GrantMapFaultHook grant_map_fault_hook_;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_HYPERVISOR_H_
