#include "src/ctl/monolithic_platform.h"

#include "src/base/log.h"

namespace xoar {
namespace {

constexpr std::uint64_t kDom0MemoryMb = 750;  // XenServer's default Dom0 size
constexpr int kDom0Vcpus = 2;
constexpr std::uint64_t kMachineMemoryGb = 4;
constexpr double kNicRateBps = 1e9;  // GbE

// Boot phase durations, calibrated so the totals land on Table 6.2's
// measurements (38.9 s to console, 42.2 s to ping).
constexpr SimDuration kHypervisorBoot = FromSeconds(4.0);
constexpr SimDuration kDom0KernelBoot = FromSeconds(9.5);
constexpr SimDuration kHardwareInit = FromSeconds(13.5);
constexpr SimDuration kServiceStartup = FromSeconds(8.4);
constexpr SimDuration kLoginPrompt = FromSeconds(3.5);
constexpr SimDuration kNetworkNegotiation = FromSeconds(3.3);

// Fractional slowdown when the network and disk data paths are active
// simultaneously inside the one control VM (Fig 6.2: Xoar's separated
// driver domains avoid this and win ~6.5% on the combined workload).
constexpr double kCoLocationPenalty = 0.061;

}  // namespace

MonolithicPlatform::MonolithicPlatform() {
  Hypervisor::Options options;
  options.enforce_shard_sharing_policy = false;  // stock Xen: policy-free IVC
  options.control_domain_crash_reboots_host = true;
  options.total_memory_bytes = kMachineMemoryGb * kGiB;
  hv_ = std::make_unique<Hypervisor>(&sim_, options, &obs_);
  xs_ = std::make_unique<XenStoreService>(hv_.get(), &sim_, &obs_);

  nic_ = std::make_unique<NicDevice>(&sim_, kNicSlot, kNicRateBps);
  disk_ = std::make_unique<DiskDevice>(&sim_, kDiskControllerSlot);
  serial_ = std::make_unique<SerialDevice>(&sim_);
  (void)pci_bus_.AddDevice(
      {kNicSlot, 0x14e4, 0x1659, PciClass::kNetwork, "Tigon3 GbE"});
  (void)pci_bus_.AddDevice({kDiskControllerSlot, 0x8086, 0x3a22,
                            PciClass::kStorage, "82801JIR SATA"});
  (void)pci_bus_.AddDevice(
      {kSerialSlot, 0x8086, 0x2937, PciClass::kSerial, "UART"});
}

Status MonolithicPlatform::Boot() {
  if (booted_) {
    return FailedPreconditionError("platform already booted");
  }
  // Phase 1: the hypervisor itself.
  sim_.RunFor(kHypervisorBoot);

  // Phase 2: the hypervisor constructs Dom0 and boots its Linux kernel.
  DomainConfig dom0_config;
  dom0_config.name = "Domain-0";
  dom0_config.memory_mb = kDom0MemoryMb;
  dom0_config.vcpus = kDom0Vcpus;
  dom0_config.os = OsProfile::kLinux;
  XOAR_ASSIGN_OR_RETURN(
      dom0_, hv_->CreateInitialDomain(dom0_config, /*as_control_domain=*/true));
  sim_.RunFor(kDom0KernelBoot);

  // Phase 3: Dom0 takes the PCI bus, enumerates it, and claims every
  // peripheral (§4: "Dom0 takes control of the PCI bus, along with attached
  // peripherals").
  pci_service_ = std::make_unique<PciBackService>(hv_.get(), &pci_bus_, dom0_);
  XOAR_RETURN_IF_ERROR(pci_service_->InitializeHardware(dom0_));
  XOAR_RETURN_IF_ERROR(hv_->GrantHwCapability(dom0_, dom0_,
                                              HwCapability::kSerialConsole));
  XOAR_RETURN_IF_ERROR(pci_service_->PassThrough(dom0_, kNicSlot));
  XOAR_RETURN_IF_ERROR(pci_service_->PassThrough(dom0_, kDiskControllerSlot));
  sim_.RunFor(kHardwareInit);

  // Phase 4: user-space services, all inside Dom0.
  xs_->DeployMonolithic(dom0_);
  XOAR_RETURN_IF_ERROR(xs_->Connect(dom0_));
  console_ = std::make_unique<ConsoleBackend>(hv_.get(), &sim_, dom0_,
                                              serial_.get());
  XOAR_RETURN_IF_ERROR(console_->Initialize());
  builder_ = std::make_unique<Builder>(hv_.get(), xs_.get(), dom0_);
  builder_->set_console(console_.get(), /*console_uses_foreign_map=*/true);
  xs_->store().AddManagerDomain(dom0_);
  netback_ = std::make_unique<NetBack>(hv_.get(), xs_.get(), dom0_, nic_.get());
  XOAR_RETURN_IF_ERROR(netback_->Initialize());
  blkback_ = std::make_unique<BlkBack>(hv_.get(), xs_.get(), dom0_, disk_.get());
  XOAR_RETURN_IF_ERROR(blkback_->Initialize());
  toolstack_ = std::make_unique<Toolstack>(hv_.get(), xs_.get(), &sim_, dom0_,
                                           builder_.get(), &obs_);
  toolstack_->AddNetBack(netback_.get());
  toolstack_->AddBlkBack(blkback_.get());
  sim_.RunFor(kServiceStartup);

  // Console login prompt: the Table 6.2 "Console" milestone.
  sim_.RunFor(kLoginPrompt);
  console_->WritePhysical("Domain-0 login: ");
  console_ready_at_ = sim_.Now();

  // Network negotiation: the Table 6.2 "ping" milestone.
  sim_.RunFor(kNetworkNegotiation);
  network_ready_at_ = sim_.Now();

  booted_ = true;
  XLOG(kInfo) << "[dom0] boot complete: console at "
              << ToSeconds(console_ready_at_) << "s, ping at "
              << ToSeconds(network_ready_at_) << "s";
  return Status::Ok();
}

StatusOr<DomainId> MonolithicPlatform::CreateGuest(const GuestSpec& spec) {
  if (!booted_) {
    return FailedPreconditionError("platform not booted");
  }
  XOAR_ASSIGN_OR_RETURN(DomainId guest, toolstack_->CreateGuest(spec));
  Settle();  // let the XenBus handshakes complete
  return guest;
}

Status MonolithicPlatform::DestroyGuest(DomainId guest) {
  return toolstack_->DestroyGuest(guest);
}

std::uint64_t MonolithicPlatform::ControlPlaneMemoryMb() const {
  return kDom0MemoryMb;
}

double MonolithicPlatform::EffectiveNetRateBps(DomainId guest) {
  NetBack* netback = netback_of(guest);
  if (netback == nullptr || !netback->IsVifConnected(guest)) {
    return 0.0;
  }
  double rate = netback->EffectiveRateBps();
  if (CoLocationActive()) {
    rate *= 1.0 - kCoLocationPenalty;
  }
  return rate;
}

double MonolithicPlatform::EffectiveDiskRateBps(DomainId guest) {
  BlkBack* blkback = blkback_of(guest);
  if (blkback == nullptr || !blkback->IsVbdConnected(guest)) {
    return 0.0;
  }
  double rate = disk_->geometry().sequential_rate * 8.0;  // bits/s
  if (CoLocationActive()) {
    rate *= 1.0 - kCoLocationPenalty;
  }
  return rate;
}

}  // namespace xoar
