#include "src/core/xoar_platform.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/ctl/monolithic_platform.h"  // canonical PCI slots

namespace xoar {
namespace {

constexpr double kNicRateBps = 1e9;  // GbE

// Boot phase durations, calibrated so the parallel-boot totals land on
// Table 6.2 (25.9 s to console, 36.6 s to ping).
constexpr SimDuration kHypervisorBoot = FromSeconds(4.0);
constexpr SimDuration kBootstrapperBoot = FromSeconds(1.5);
constexpr SimDuration kXenStoreBoot = FromSeconds(2.4);
// The Console Manager runs Linux without PCI enumeration (§5.5).
constexpr SimDuration kConsoleBoot = FromSeconds(14.5);
constexpr SimDuration kConsoleLogin = FromSeconds(3.5);
constexpr SimDuration kBuilderBoot = FromSeconds(1.6);  // nanOS
constexpr SimDuration kPciBackBoot = FromSeconds(8.0);
constexpr SimDuration kHardwareInit = FromSeconds(13.5);
constexpr SimDuration kDriverDomainBoot = FromSeconds(4.5);
constexpr SimDuration kNetworkNegotiation = FromSeconds(1.1);
constexpr SimDuration kToolstackBoot = FromSeconds(2.5);

// A shard's build request from its Table 5.1 descriptor; the domain is
// named after the descriptor plus `name_suffix`.
BuildRequest ShardRequest(ShardClass cls, const std::string& name_suffix) {
  const ShardDescriptor& d = DescriptorFor(cls);
  BuildRequest request;
  request.config.name = std::string(d.name) + name_suffix;
  request.config.memory_mb = d.memory_mb;
  request.config.vcpus = 1;  // every shard runs a single VCPU (§6.1)
  request.config.os = d.os;
  request.config.is_shard = true;
  request.image = "shard-linux";
  request.connect_console = false;
  return request;
}

}  // namespace

XoarPlatform::XoarPlatform(Config config) : config_(config) {
  Hypervisor::Options options;
  options.enforce_shard_sharing_policy = true;
  // §5.8: the "Dom0 failure reboots the host" assumption is removed so the
  // Bootstrapper can complete execution and quit.
  options.control_domain_crash_reboots_host = false;
  options.total_memory_bytes = config_.machine_memory_gb * kGiB;
  hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
  xs_ = std::make_unique<XenStoreService>(hv_.get(), &sim_, &obs_);

  serial_ = std::make_unique<SerialDevice>(&sim_);
  for (int i = 0; i < std::max(1, config_.num_nics); ++i) {
    const PciSlot slot{kNicSlot.pci_domain, kNicSlot.bus,
                       static_cast<std::uint8_t>(kNicSlot.slot + i)};
    nics_.push_back(
        std::make_unique<NicDevice>(&sim_, slot, kNicRateBps));
    (void)pci_bus_.AddDevice({slot, 0x14e4, 0x1659, PciClass::kNetwork,
                              StrFormat("Tigon3 GbE #%d", i)});
  }
  for (int i = 0; i < std::max(1, config_.num_disk_controllers); ++i) {
    const PciSlot slot{kDiskControllerSlot.pci_domain, kDiskControllerSlot.bus,
                       static_cast<std::uint8_t>(kDiskControllerSlot.slot + i)};
    disks_.push_back(std::make_unique<DiskDevice>(&sim_, slot, config_.disk));
    (void)pci_bus_.AddDevice({slot, 0x8086, 0x3a22, PciClass::kStorage,
                              StrFormat("82801JIR SATA #%d", i)});
  }
  (void)pci_bus_.AddDevice(
      {kSerialSlot, 0x8086, 0x2937, PciClass::kSerial, "UART"});

  // Every privilege-relevant hypervisor action lands in the audit log.
  Simulator* sim = &sim_;
  AuditLog* audit = &audit_;
  hv_->set_audit_hook([sim, audit](const std::string& event) {
    audit->RecordHypervisor(sim->Now(), event);
  });
}

StatusOr<DomainId> XoarPlatform::CreateShardDomainDirect(
    ShardClass cls, const std::string& name_suffix) {
  XOAR_ASSIGN_OR_RETURN(
      DomainId id,
      hv_->CreateDomain(bootstrapper_, ShardRequest(cls, name_suffix).config));
  XOAR_RETURN_IF_ERROR(hv_->FinishBuild(bootstrapper_, id));
  XOAR_RETURN_IF_ERROR(hv_->UnpauseDomain(bootstrapper_, id));
  return id;
}

Status XoarPlatform::Boot() {
  if (booted_) {
    return FailedPreconditionError("platform already booted");
  }
  const Config& c = config_;

  // --- Compute the §5.2 dependency schedule (absolute completion times) ---
  const SimTime t_hv = kHypervisorBoot;
  const SimTime t_bootstrapper = t_hv + kBootstrapperBoot;
  const SimTime t_xenstore = t_bootstrapper + kXenStoreBoot;
  SimTime t_console, t_builder, t_pciback, t_drivers, t_network, t_toolstacks;
  SimTime t_console_ready;
  if (!c.serialize_boot) {
    // Parallel boot: independent shards overlap (the Table 6.2 speedup).
    t_console = t_xenstore + kConsoleBoot;
    t_builder = t_xenstore + kBuilderBoot;
    t_pciback = t_builder + kPciBackBoot + kHardwareInit;
    t_drivers = t_pciback + kDriverDomainBoot;  // NetBack ∥ BlkBack
    t_network = t_drivers + kNetworkNegotiation;
    t_toolstacks = t_drivers + kToolstackBoot;
    t_console_ready = t_console + kConsoleLogin;
  } else {
    // Ablation: strict serialization, Dom0-style — the login prompt only
    // appears once every service has come up.
    t_console = t_xenstore + kConsoleBoot;
    t_builder = t_console + kBuilderBoot;
    t_pciback = t_builder + kPciBackBoot + kHardwareInit;
    t_drivers = t_pciback + 2 * kDriverDomainBoot;  // one after the other
    t_network = t_drivers + kNetworkNegotiation;
    t_toolstacks = t_network + kToolstackBoot;
    t_console_ready = t_toolstacks + kConsoleLogin;
  }

  // --- Phase 1: hypervisor, then the Bootstrapper (the initial domain) ---
  sim_.RunUntil(t_hv);
  DomainConfig boot_config;
  boot_config.name = "Bootstrapper";
  boot_config.memory_mb = DescriptorFor(ShardClass::kBootstrapper).memory_mb;
  boot_config.vcpus = 1;
  boot_config.os = OsProfile::kNanOs;
  boot_config.is_shard = true;
  XOAR_ASSIGN_OR_RETURN(
      bootstrapper_,
      hv_->CreateInitialDomain(boot_config, /*as_control_domain=*/false));
  // Xen endows the initial domain with the full privileged set; unlike
  // Dom0 it holds it only until boot completes.
  hv_->domain(bootstrapper_)->hypercall_policy().PermitAll();
  sim_.RunUntil(t_bootstrapper);

  // --- Phase 2: XenStore (required by everything else, §5.2) ---
  // Cloud-density: one XenStore-State domain per store partition
  // (SCALING.md). Shard 0 keeps the canonical descriptor name so the
  // single-shard deployment is byte-identical to the paper's.
  const int state_shards = std::max(1, c.xenstore_state_shards);
  xs_->SetShardCount(state_shards);
  for (int i = 0; i < state_shards; ++i) {
    XOAR_ASSIGN_OR_RETURN(
        DomainId state_dom,
        CreateShardDomainDirect(ShardClass::kXenStoreState,
                                i == 0 ? std::string()
                                       : StrFormat("-%d", i)));
    xenstore_state_doms_.push_back(state_dom);
    control_plane_doms_.insert(state_dom);
  }
  XOAR_ASSIGN_OR_RETURN(xenstore_logic_dom_,
                        CreateShardDomainDirect(ShardClass::kXenStoreLogic));
  control_plane_doms_.insert(xenstore_logic_dom_);
  xs_->DeploySplit(xenstore_logic_dom_, xenstore_state_doms_);
  // Fig 5.1: XenStore-Logic is restarted on each request.
  xs_->set_restart_policy(XenStoreService::RestartPolicy::kPerRequest);
  sim_.RunUntil(t_xenstore);

  // --- Phase 3a: Console Manager (provides consoles for later shards) ---
  if (c.console_manager_enabled) {
    XOAR_ASSIGN_OR_RETURN(console_dom_,
                          CreateShardDomainDirect(ShardClass::kConsoleManager));
    control_plane_doms_.insert(console_dom_);
    XOAR_RETURN_IF_ERROR(hv_->GrantHwCapability(bootstrapper_, console_dom_,
                                                HwCapability::kSerialConsole));
    console_ = std::make_unique<ConsoleBackend>(hv_.get(), &sim_, console_dom_,
                                                serial_.get());
    XOAR_RETURN_IF_ERROR(console_->Initialize());
  }

  // --- Phase 3b: Builder (must precede PCIBack, §5.2) ---
  XOAR_ASSIGN_OR_RETURN(builder_dom_,
                        CreateShardDomainDirect(ShardClass::kBuilder));
  control_plane_doms_.insert(builder_dom_);
  for (Hypercall hc :
       {Hypercall::kDomctlCreate, Hypercall::kDomctlDestroy,
        Hypercall::kDomctlPause, Hypercall::kDomctlUnpause,
        Hypercall::kForeignMemoryMap, Hypercall::kDomctlSetPrivileges,
        Hypercall::kDomctlDelegate, Hypercall::kSnapshotOp,
        Hypercall::kSetupGuestRings}) {
    XOAR_RETURN_IF_ERROR(hv_->PermitHypercall(bootstrapper_, builder_dom_, hc));
  }
  builder_ = std::make_unique<Builder>(hv_.get(), xs_.get(), builder_dom_);
  builder_->set_audit_log(&audit_);
  xs_->store().AddManagerDomain(builder_dom_);
  XOAR_RETURN_IF_ERROR(xs_->Connect(builder_dom_));
  if (console_ != nullptr) {
    builder_->set_console(console_.get(), /*console_uses_foreign_map=*/false);
  }
  // Self-delegate the boot shards so the Builder may authorize guests to
  // use them (AuthorizeShardUse audits against delegation).
  XOAR_RETURN_IF_ERROR(
      hv_->AllowDelegation(builder_dom_, xenstore_logic_dom_, builder_dom_));
  if (console_ != nullptr) {
    XOAR_RETURN_IF_ERROR(
        hv_->AllowDelegation(builder_dom_, console_dom_, builder_dom_));
  }
  sim_.RunUntil(std::min(t_builder, t_console));
  sim_.RunUntil(t_builder);

  // --- Phase 4: PCIBack — hardware init and PCI enumeration ---
  XOAR_ASSIGN_OR_RETURN(
      pciback_dom_,
      builder_->BuildVm(bootstrapper_,
                        ShardRequest(ShardClass::kPciBack, std::string())));
  control_plane_doms_.insert(pciback_dom_);
  // kDomctlDestroy covers PCIBack's own §5.3 self-destruction.
  for (Hypercall hc : {Hypercall::kDomctlSetPrivileges, Hypercall::kPhysdevOp,
                       Hypercall::kPciConfigOp, Hypercall::kDomctlDestroy}) {
    XOAR_RETURN_IF_ERROR(hv_->PermitHypercall(builder_dom_, pciback_dom_, hc));
  }
  pci_service_ =
      std::make_unique<PciBackService>(hv_.get(), &pci_bus_, pciback_dom_);
  pci_service_->set_audit_log(&audit_);
  XOAR_RETURN_IF_ERROR(pci_service_->InitializeHardware(bootstrapper_));
  sim_.RunUntil(t_pciback);

  // --- Phase 5: udev rules fire, creating one driver domain per device ---
  Status udev_status = Status::Ok();
  pci_service_->set_udev_rule([this, &udev_status](const PciDeviceInfo& dev) {
    const bool is_net = dev.device_class == PciClass::kNetwork;
    StatusOr<DomainId> dom = builder_->BuildVm(
        pciback_dom_,
        ShardRequest(is_net ? ShardClass::kNetBack : ShardClass::kBlkBack,
                     "-" + dev.slot.ToString()));
    if (!dom.ok()) {
      udev_status = dom.status();
      return;
    }
    Status pass = pci_service_->PassThrough(*dom, dev.slot);
    if (!pass.ok()) {
      udev_status = pass;
      return;
    }
    if (is_net) {
      NicDevice* nic = nullptr;
      for (auto& candidate : nics_) {
        if (candidate->slot() == dev.slot) {
          nic = candidate.get();
        }
      }
      netbacks_.push_back(std::make_unique<NetBack>(hv_.get(), xs_.get(),
                                                    *dom, nic));
      control_plane_doms_.insert(*dom);
      udev_status = netbacks_.back()->Initialize();
    } else {
      DiskDevice* disk = nullptr;
      for (auto& candidate : disks_) {
        if (candidate->slot() == dev.slot) {
          disk = candidate.get();
        }
      }
      blkbacks_.push_back(std::make_unique<BlkBack>(hv_.get(), xs_.get(),
                                                    *dom, disk));
      control_plane_doms_.insert(*dom);
      udev_status = blkbacks_.back()->Initialize();
    }
  });
  pci_service_->TriggerUdevRules();
  XOAR_RETURN_IF_ERROR(udev_status);
  if (netbacks_.empty() || blkbacks_.empty()) {
    return InternalError("udev rules did not produce both driver classes");
  }
  sim_.RunUntil(t_drivers);

  // --- Phase 6: the Toolstack ---
  XOAR_RETURN_IF_ERROR(AddToolstack().status());
  sim_.RunUntil(t_toolstacks);

  // --- Milestones ---
  if (console_ != nullptr) {
    sim_.RunUntil(t_console_ready);
    console_->WritePhysical("xoar login: ");
    console_ready_at_ = t_console_ready;
  }
  sim_.RunUntil(t_network);
  network_ready_at_ = t_network;

  // --- Steady state: restart engine + self-destructing boot shards ---
  restart_engine_ = std::make_unique<RestartEngine>(
      hv_.get(), &sim_, &snapshots_, builder_dom_, &audit_, &obs_);
  // Supervision (DESIGN.md §5d): every restartable shard is supervised as
  // it registers — heartbeats plus automatic microreboot escalation. A
  // component whose restart budget runs out is quarantined through its
  // suspend hook, so peers see deterministic UNAVAILABLE instead of
  // silence.
  watchdog_ = std::make_unique<Watchdog>(&sim_, hv_.get(),
                                         restart_engine_.get(), &audit_,
                                         &obs_);
  auto restartable = [this](const std::string& name, DomainId dom,
                            RestartEngine::ComponentHooks hooks) -> Status {
    XOAR_RETURN_IF_ERROR(
        restart_engine_->Register(name, dom, std::move(hooks)));
    return watchdog_->Supervise(name);
  };
  // §3.3: the fast restart path persists renegotiable device configuration
  // in the recovery box. The resume hooks re-Put it so a box the fast path
  // rejected (recovery_box_corrupt) is repopulated — with fresh checksums —
  // by the renegotiation the slow path forces.
  for (std::size_t i = 0; i < netbacks_.size(); ++i) {
    NetBack* netback = netbacks_[i].get();
    const DomainId dom = netback->self();
    const std::string name =
        i == 0 ? "NetBack" : StrFormat("NetBack-%zu", i);
    const std::string nic_config =
        StrFormat("slot=%s rate=%.0f",
                  netback->nic()->slot().ToString().c_str(),
                  netback->nic()->link_rate());
    snapshots_.recovery_box(dom).Put("nic-config", nic_config);
    XOAR_RETURN_IF_ERROR(restartable(
        name, dom,
        {[netback] { netback->Suspend(); },
         [this, netback, dom, nic_config] {
           snapshots_.recovery_box(dom).Put("nic-config", nic_config);
           netback->Resume();
         },
         nullptr}));
  }
  for (std::size_t i = 0; i < blkbacks_.size(); ++i) {
    BlkBack* blkback = blkbacks_[i].get();
    const DomainId dom = blkback->self();
    const std::string name =
        i == 0 ? "BlkBack" : StrFormat("BlkBack-%zu", i);
    const std::string disk_config =
        StrFormat("slot=%s", i == 0 ? "primary" : "aux");
    snapshots_.recovery_box(dom).Put("disk-config", disk_config);
    XOAR_RETURN_IF_ERROR(restartable(
        name, dom,
        {[blkback] { blkback->Suspend(); },
         [this, blkback, dom, disk_config] {
           snapshots_.recovery_box(dom).Put("disk-config", disk_config);
           blkback->Resume();
         },
         nullptr}));
  }
  // Table 5.1: XenStore-Logic, the Builder, and the Toolstacks are
  // restartable too. XenStore-Logic re-attaches to XenStore-State on
  // resume; the Builder's and a Toolstack's durable state (which guests
  // they parent/created, delegations) lives in the hypervisor and
  // XenStore, so their restart hooks are trivial.
  XOAR_RETURN_IF_ERROR(restartable(
      "XenStore-Logic", xenstore_logic_dom_,
      {[this] { (void)xs_->BeginLogicRestart(); },
       [this] { (void)xs_->CompleteLogicRestart(); }, nullptr}));
  // Each XenStore-State partition microreboots independently; the suspend
  // hook fails only that partition's requests, and the resume hook serves
  // them again over the contents, which stayed in place.
  for (std::size_t i = 0; i < xenstore_state_doms_.size(); ++i) {
    const int shard = static_cast<int>(i);
    const std::string name =
        i == 0 ? "XenStore-State" : StrFormat("XenStore-State-%zu", i);
    XOAR_RETURN_IF_ERROR(restartable(
        name, xenstore_state_doms_[i],
        {[this, shard] { (void)xs_->BeginStateShardRestart(shard); },
         [this, shard] { (void)xs_->CompleteStateShardRestart(shard); },
         nullptr}));
  }
  XOAR_RETURN_IF_ERROR(restartable(
      "Builder", builder_dom_, {nullptr, nullptr, nullptr}));
  XOAR_RETURN_IF_ERROR(restartable(
      "Toolstack", toolstacks_.front()->self(), {nullptr, nullptr, nullptr}));

  if (c.destroy_pciback_after_boot) {
    XOAR_RETURN_IF_ERROR(pci_service_->SelfDestruct());
  }
  // §5.2/§5.8: the Bootstrapper completes execution and quits.
  XOAR_RETURN_IF_ERROR(hv_->DestroyDomain(bootstrapper_, bootstrapper_));

  // --- Observability: the §5.2 schedule as kBoot spans, one per phase, on
  // the track of the shard that came up (Table 6.2's bars, as a trace) ---
  Tracer& tracer = obs_.tracer();
  tracer.Span(TraceCategory::kBoot, "phase:hypervisor", 0, t_hv);
  tracer.Span(TraceCategory::kBoot, "phase:bootstrapper", t_hv, t_bootstrapper,
              bootstrapper_.value());
  tracer.Span(TraceCategory::kBoot, "phase:xenstore", t_bootstrapper,
              t_xenstore, xenstore_logic_dom_.value());
  if (console_ != nullptr) {
    tracer.Span(TraceCategory::kBoot, "phase:console-manager", t_xenstore,
                t_console, console_dom_.value());
    tracer.Span(TraceCategory::kBoot, "phase:console-login", t_console,
                t_console_ready, console_dom_.value());
  }
  tracer.Span(TraceCategory::kBoot, "phase:builder",
              c.serialize_boot ? t_console : t_xenstore, t_builder,
              builder_dom_.value());
  tracer.Span(TraceCategory::kBoot, "phase:pciback+hw-init", t_builder,
              t_pciback, pciback_dom_.value());
  for (const auto& netback : netbacks_) {
    tracer.Span(TraceCategory::kBoot, "phase:netback", t_pciback, t_drivers,
                netback->self().value());
  }
  for (const auto& blkback : blkbacks_) {
    tracer.Span(TraceCategory::kBoot, "phase:blkback", t_pciback, t_drivers,
                blkback->self().value());
  }
  tracer.Span(TraceCategory::kBoot, "phase:network-negotiation", t_drivers,
              t_network, netbacks_.front()->self().value());
  tracer.Span(TraceCategory::kBoot, "phase:toolstack",
              c.serialize_boot ? t_network : t_drivers, t_toolstacks,
              toolstacks_.front()->self().value());
  obs_.metrics()
      .GetGauge("platform.boot.console_ready_s")
      ->Set(ToSeconds(console_ready_at_));
  obs_.metrics()
      .GetGauge("platform.boot.network_ready_s")
      ->Set(ToSeconds(network_ready_at_));

  booted_ = true;
  XLOG(kInfo) << "[xoar] boot complete: console at "
              << ToSeconds(console_ready_at_) << "s, ping at "
              << ToSeconds(network_ready_at_) << "s";
  return Status::Ok();
}

StatusOr<int> XoarPlatform::AddToolstack(std::uint64_t memory_quota_mb) {
  XOAR_ASSIGN_OR_RETURN(
      DomainId ts_dom,
      builder_->BuildVm(
          bootstrapper_.valid() ? bootstrapper_ : builder_dom_,
          ShardRequest(ShardClass::kToolstack,
                       StrFormat("-%zu", toolstacks_.size()))));
  // §5.6: VM-management (but not creation or memory) privileges.
  for (Hypercall hc : {Hypercall::kDomctlPause, Hypercall::kDomctlUnpause,
                       Hypercall::kDomctlDestroy}) {
    XOAR_RETURN_IF_ERROR(hv_->PermitHypercall(builder_dom_, ts_dom, hc));
  }
  auto toolstack = std::make_unique<Toolstack>(hv_.get(), xs_.get(), &sim_,
                                               ts_dom, builder_.get(), &obs_);
  toolstack->set_authorize_shard_use(true);
  if (memory_quota_mb > 0) {
    toolstack->set_memory_quota_mb(memory_quota_mb);
  }
  // Delegate the platform's driver domains to this toolstack (Fig 3.1).
  for (const auto& netback : netbacks_) {
    XOAR_RETURN_IF_ERROR(
        hv_->AllowDelegation(builder_dom_, netback->self(), ts_dom));
    toolstack->AddNetBack(netback.get());
  }
  for (const auto& blkback : blkbacks_) {
    XOAR_RETURN_IF_ERROR(
        hv_->AllowDelegation(builder_dom_, blkback->self(), ts_dom));
    toolstack->AddBlkBack(blkback.get());
  }
  control_plane_doms_.insert(ts_dom);
  toolstacks_.push_back(std::move(toolstack));
  return static_cast<int>(toolstacks_.size()) - 1;
}

StatusOr<DomainId> XoarPlatform::CreateGuestWithSriovVif(GuestSpec spec) {
  if (!booted_) {
    return FailedPreconditionError("platform not booted");
  }
  if (pci_service_ == nullptr || pci_service_->destroyed()) {
    return FailedPreconditionError(
        "SR-IOV provisioning needs a resident PCIBack (§5.3)");
  }
  spec.with_net = false;  // the VF replaces the paravirtual vif
  XOAR_ASSIGN_OR_RETURN(DomainId guest, CreateGuest(spec));
  XOAR_ASSIGN_OR_RETURN(std::vector<PciSlot> vfs,
                        pci_service_->CreateVirtualFunctions(kNicSlot, 1));
  Status assigned = pci_service_->PassThrough(guest, vfs.front());
  if (!assigned.ok()) {
    (void)DestroyGuest(guest);
    return assigned;
  }
  AuditEvent event;
  event.time = sim_.Now();
  event.kind = AuditEventKind::kShardLinked;
  event.subject = guest;
  event.object = pciback_dom_;
  event.detail = StrFormat("SR-IOV VF %s", vfs.front().ToString().c_str());
  audit_.Record(std::move(event));
  return guest;
}

StatusOr<DomainId> XoarPlatform::CreateGuest(const GuestSpec& spec) {
  if (!booted_) {
    return FailedPreconditionError("platform not booted");
  }
  XOAR_ASSIGN_OR_RETURN(DomainId guest, toolstacks_.at(0)->CreateGuest(spec));
  Settle();
  RecordGuestAudit(guest, spec, *toolstacks_.at(0)->guest(guest));
  return guest;
}

void XoarPlatform::RecordGuestAudit(DomainId guest, const GuestSpec& spec,
                                    const GuestRecord& record) {
  AuditEvent created;
  created.time = sim_.Now();
  created.kind = AuditEventKind::kVmCreated;
  created.subject = guest;
  created.detail = spec.name;
  audit_.Record(std::move(created));
  auto link = [&](DomainId shard, std::string_view what) {
    AuditEvent event;
    event.time = sim_.Now();
    event.kind = AuditEventKind::kShardLinked;
    event.subject = guest;
    event.object = shard;
    event.detail = std::string(what);
    audit_.Record(std::move(event));
  };
  link(xenstore_logic_dom_, "XenStore");
  if (console_ != nullptr) {
    link(console_dom_, "Console");
  }
  if (record.netback != nullptr) {
    link(record.netback->self(), "NetBack");
  }
  if (record.blkback != nullptr) {
    link(record.blkback->self(), "BlkBack");
  }
  if (record.qemu_domain.valid()) {
    link(record.qemu_domain, "QemuVM");
  }
}

Status XoarPlatform::DestroyGuest(DomainId guest) {
  for (auto& toolstack : toolstacks_) {
    if (toolstack->guest(guest) == nullptr) {
      continue;
    }
    XOAR_RETURN_IF_ERROR(toolstack->DestroyGuest(guest));
    AuditEvent event;
    event.time = sim_.Now();
    event.kind = AuditEventKind::kVmDestroyed;
    event.subject = guest;
    audit_.Record(std::move(event));
    return Status::Ok();
  }
  return NotFoundError("guest not found on any toolstack");
}

GuestRecord* XoarPlatform::FindGuest(DomainId guest) {
  for (auto& toolstack : toolstacks_) {
    if (GuestRecord* record = toolstack->guest(guest)) {
      return record;
    }
  }
  return nullptr;
}

namespace {
// §6.1.2: pure network throughput is down 1–2.5% on Xoar — the paravirtual
// path crosses into a dedicated driver domain rather than Dom0's kernel,
// which costs a little per-packet work. Calibrated to the middle of the
// paper's measured range.
constexpr double kXoarNetPathEfficiency = 0.98;
}  // namespace

double XoarPlatform::EffectiveNetRateBps(DomainId guest) {
  NetBack* netback = netback_of(guest);
  if (netback == nullptr || !netback->IsVifConnected(guest)) {
    return 0.0;
  }
  // Isolated driver domains: no co-location interference (Fig 6.2), only
  // the constant vif-hop cost.
  return netback->EffectiveRateBps() * kXoarNetPathEfficiency;
}

double XoarPlatform::EffectiveDiskRateBps(DomainId guest) {
  BlkBack* blkback = blkback_of(guest);
  if (blkback == nullptr || !blkback->IsVbdConnected(guest)) {
    return 0.0;
  }
  return config_.disk.sequential_rate * 8.0;
}

DomainId XoarPlatform::ServiceDomainOf(ServiceKind kind, DomainId guest) {
  switch (kind) {
    case ServiceKind::kDeviceEmulator: {
      const GuestRecord* record = FindGuest(guest);
      return record == nullptr ? DomainId::Invalid() : record->qemu_domain;
    }
    case ServiceKind::kNetBack: {
      NetBack* netback = netback_of(guest);
      return netback == nullptr ? DomainId::Invalid() : netback->self();
    }
    case ServiceKind::kBlkBack: {
      BlkBack* blkback = blkback_of(guest);
      return blkback == nullptr ? DomainId::Invalid() : blkback->self();
    }
    case ServiceKind::kToolstack: {
      const Domain* dom = hv_->domain(guest);
      return dom == nullptr ? DomainId::Invalid() : dom->parent_toolstack();
    }
    case ServiceKind::kXenStore:
      return xenstore_logic_dom_;
    case ServiceKind::kConsole:
      return console_dom_;
  }
  return DomainId::Invalid();
}

DomainId XoarPlatform::shard_domain(ShardClass cls) const {
  switch (cls) {
    case ShardClass::kBootstrapper:
      return bootstrapper_;
    case ShardClass::kXenStoreState:
      return xenstore_state_doms_.empty() ? DomainId::Invalid()
                                          : xenstore_state_doms_.front();
    case ShardClass::kXenStoreLogic:
      return xenstore_logic_dom_;
    case ShardClass::kConsoleManager:
      return console_dom_;
    case ShardClass::kBuilder:
      return builder_dom_;
    case ShardClass::kPciBack:
      return pciback_dom_;
    case ShardClass::kNetBack:
      return netbacks_.empty() ? DomainId::Invalid() : netbacks_.front()->self();
    case ShardClass::kBlkBack:
      return blkbacks_.empty() ? DomainId::Invalid() : blkbacks_.front()->self();
    case ShardClass::kToolstack:
      return toolstacks_.empty() ? DomainId::Invalid()
                                 : toolstacks_.front()->self();
    case ShardClass::kQemuVm:
    case ShardClass::kCount:
      break;
  }
  return DomainId::Invalid();
}

std::uint64_t XoarPlatform::ControlPlaneMemoryMb() const {
  // control_plane_doms_ is maintained as shards come up — one indexed
  // walk, independent of guest count, no vector re-concatenation.
  std::uint64_t total = 0;
  for (DomainId dom_id : control_plane_doms_) {
    const Domain* dom = hv_->domain(dom_id);
    if (dom != nullptr && dom->alive()) {
      total += dom->config().memory_mb;
    }
  }
  return total;
}

}  // namespace xoar
