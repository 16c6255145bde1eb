// XoarPlatform: the disaggregated platform (Chapter 5, Fig 5.1).
//
// The control VM is split into the Table 5.1 shards. Boot follows §5.2:
// Xen creates the Bootstrapper, which starts XenStore first, then the
// Console Manager, then the Builder; the Builder instantiates PCIBack,
// which initializes the hardware and fires udev rules creating one
// NetBack/BlkBack per controller; finally a Toolstack comes up (more can
// be added at runtime). Independent shards boot in parallel, which is where
// the Table 6.2 boot-time win comes from. The Bootstrapper self-destructs
// when boot completes; PCIBack may optionally be destroyed too (§5.3).
//
// Thread-safety: not thread-safe. A platform and its Simulator form one
// single-threaded discrete-event world; all calls must come from the
// thread driving sim().Run*() (see DESIGN.md §2 and §5b).
#ifndef XOAR_SRC_CORE_XOAR_PLATFORM_H_
#define XOAR_SRC_CORE_XOAR_PLATFORM_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/base/audit_log.h"
#include "src/core/microreboot.h"
#include "src/core/shard.h"
#include "src/core/snapshot.h"
#include "src/core/watchdog.h"
#include "src/ctl/builder.h"
#include "src/ctl/pciback.h"
#include "src/ctl/platform.h"
#include "src/ctl/toolstack.h"
#include "src/dev/disk.h"
#include "src/dev/nic.h"
#include "src/dev/pci.h"
#include "src/dev/serial.h"
#include "src/drv/console.h"

namespace xoar {

class XoarPlatform : public Platform {
 public:
  // Deployment knobs. The defaults reproduce the paper's evaluated
  // configuration: one NIC, one disk controller, console enabled, parallel
  // boot. One toolstack boots; AddToolstack adds more at runtime.
  struct Config {
    std::uint64_t machine_memory_gb = 4;
    DiskGeometry disk;
    // §6.1.1: "systems with multiple network or disk controllers can have
    // several instances of the NetBack and BlkBack shards" — one driver
    // domain is created per controller by the udev rules.
    int num_nics = 1;
    int num_disk_controllers = 1;

    // §6.1.1 deployment options: commercial hosts often drop the console;
    // PCIBack can self-destruct once steady state is reached (§5.3).
    bool console_manager_enabled = true;
    bool destroy_pciback_after_boot = false;

    // Cloud-density scale-out (SCALING.md): partition XenStore-State into
    // this many path-prefix shards, each hosted in its own shard domain
    // and independently microrebootable. A State-shard restart only
    // stalls the tenants whose /local/domain/<id> directories hash to it.
    // 1 = the paper's evaluated single-State configuration.
    int xenstore_state_shards = 1;

    // Ablation: boot shards strictly sequentially instead of in parallel
    // (bench/ablation_boot_parallelism).
    bool serialize_boot = false;
  };

  XoarPlatform() : XoarPlatform(Config()) {}
  explicit XoarPlatform(Config config);

  std::string_view name() const override { return "Xoar"; }

  // Runs the §5.2 dependency-parallel shard boot to completion on the
  // owned simulator. Must be called exactly once, before any guest is
  // created. Emits TraceCategory::kBoot spans per phase and records
  // platform.boot.*_s gauges (see OBSERVABILITY.md).
  Status Boot() override;

  // Builds a guest through the least-loaded toolstack and the Builder,
  // wiring split-driver frontends to this platform's NetBack/BlkBack
  // shards subject to the §5.6 sharing policy and §3.2.1 constraint
  // groups. Fails (rather than shares) on a constraint-tag conflict.
  StatusOr<DomainId> CreateGuest(const GuestSpec& spec) override;
  Status DestroyGuest(DomainId guest) override;

  // Steady-state throughput the guest currently sees, after driver-domain
  // sharing and any in-flight microreboot outage.
  double EffectiveNetRateBps(DomainId guest) override;
  double EffectiveDiskRateBps(DomainId guest) override;

  DomainId ServiceDomainOf(ServiceKind kind, DomainId guest) override;

  // --- Shard access ---
  // Accessors return references into platform-owned shards; they stay
  // valid across microreboots (the RestartEngine restores state in place)
  // but not across platform destruction.

  // Domain id of a singleton shard, or an invalid id if that shard is not
  // resident (e.g. the Bootstrapper after self-destruction). For
  // XenStore-State this is shard 0.
  DomainId shard_domain(ShardClass cls) const;
  Builder& builder() { return *builder_; }
  Toolstack& toolstack(int index = 0) { return *toolstacks_.at(index); }
  ConsoleBackend* console() { return console_.get(); }
  PciBackService& pci_service() { return *pci_service_; }
  NetBack& netback(int index = 0) { return *netbacks_.at(index); }
  BlkBack& blkback(int index = 0) { return *blkbacks_.at(index); }
  int netback_count() const { return static_cast<int>(netbacks_.size()); }
  int blkback_count() const { return static_cast<int>(blkbacks_.size()); }
  RestartEngine& restarts() { return *restart_engine_; }
  // Null until Boot has registered the restartable shards.
  Watchdog* watchdog() { return watchdog_.get(); }
  SnapshotManager& snapshots() { return snapshots_; }
  AuditLog& audit() { return audit_; }
  PciBus& pci_bus() { return pci_bus_; }
  NicDevice& nic(int index = 0) { return *nics_.at(index); }
  DiskDevice& disk(int index = 0) { return *disks_.at(index); }
  SerialDevice& serial() { return *serial_; }

  // Creates an additional toolstack shard at runtime with delegated access
  // to the platform's driver domains (private-cloud scenario, §3.4.2).
  StatusOr<int> AddToolstack(std::uint64_t memory_quota_mb = 0);

  // §3.4.2 / §5.3: creates a guest whose network device is an SR-IOV
  // virtual function passed through directly — no NetBack sharing at all.
  // Requires PCIBack to still be resident (and pins it: VF provisioning
  // needs a persistent shard).
  StatusOr<DomainId> CreateGuestWithSriovVif(GuestSpec spec);

  // Convenience wrappers for the restart experiments.
  Status EnableNetBackRestarts(SimDuration interval, bool fast) {
    return restart_engine_->EnablePeriodicRestarts("NetBack", interval, fast);
  }
  Status DisableNetBackRestarts() {
    return restart_engine_->DisableRestarts("NetBack");
  }

  // §6.1.1: total memory held by live control-plane shards, in MiB.
  std::uint64_t ControlPlaneMemoryMb() const;

 private:
  GuestRecord* FindGuest(DomainId guest) override;
  StatusOr<DomainId> CreateShardDomainDirect(ShardClass cls,
                                             const std::string& name_suffix =
                                                 std::string());
  void RecordGuestAudit(DomainId guest, const GuestSpec& spec,
                        const GuestRecord& record);

  Config config_;
  bool booted_ = false;
  PciBus pci_bus_;
  std::vector<std::unique_ptr<NicDevice>> nics_;
  std::vector<std::unique_ptr<DiskDevice>> disks_;
  std::unique_ptr<SerialDevice> serial_;

  DomainId bootstrapper_;
  std::vector<DomainId> xenstore_state_doms_;
  DomainId xenstore_logic_dom_;
  DomainId console_dom_;
  DomainId builder_dom_;
  DomainId pciback_dom_;
  // Every control-plane domain (drives ControlPlaneMemoryMb).
  std::set<DomainId> control_plane_doms_;

  std::unique_ptr<ConsoleBackend> console_;
  std::unique_ptr<Builder> builder_;
  std::unique_ptr<PciBackService> pci_service_;
  std::vector<std::unique_ptr<NetBack>> netbacks_;
  std::vector<std::unique_ptr<BlkBack>> blkbacks_;
  std::vector<std::unique_ptr<Toolstack>> toolstacks_;

  SnapshotManager snapshots_;
  AuditLog audit_;
  std::unique_ptr<RestartEngine> restart_engine_;
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace xoar

#endif  // XOAR_SRC_CORE_XOAR_PLATFORM_H_
