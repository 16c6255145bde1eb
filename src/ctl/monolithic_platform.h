// The stock Xen baseline: one monolithic control VM (Dom0) hosting every
// service (Fig 2.1 / Chapter 4).
//
// Dom0 is the hypervisor's control domain: unrestricted hypercalls,
// arbitrary foreign mapping, all hardware capabilities. XenStore, the
// console daemon, the VM builder, the toolstack, device drivers, and device
// emulation all run inside it — so any compromise of any of them is a
// compromise of the platform, and a Dom0 crash reboots the host. This is
// the "Dom0" configuration measured against Xoar throughout Chapter 6.
#ifndef XOAR_SRC_CTL_MONOLITHIC_PLATFORM_H_
#define XOAR_SRC_CTL_MONOLITHIC_PLATFORM_H_

#include <memory>

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

// Canonical slots for the testbed's peripherals (Dell T3500-alike).
inline constexpr PciSlot kNicSlot{0, 2, 0};
inline constexpr PciSlot kDiskControllerSlot{0, 3, 0};
inline constexpr PciSlot kSerialSlot{0, 0, 3};

class MonolithicPlatform : public Platform {
 public:
  MonolithicPlatform();

  std::string_view name() const override { return "Dom0 (stock Xen)"; }

  Status Boot() override;
  StatusOr<DomainId> CreateGuest(const GuestSpec& spec) override;
  Status DestroyGuest(DomainId guest) override;

  double EffectiveNetRateBps(DomainId guest) override;
  double EffectiveDiskRateBps(DomainId guest) override;

  // Stock Xen: every control-plane service lives in Dom0 (Fig 2.1).
  DomainId ServiceDomainOf(ServiceKind kind, DomainId guest) override {
    (void)kind;
    (void)guest;
    return dom0_;
  }

  DomainId dom0() const { return dom0_; }
  PciBus& pci_bus() { return pci_bus_; }
  NicDevice& nic() { return *nic_; }
  DiskDevice& disk() { return *disk_; }
  SerialDevice& serial() { return *serial_; }
  ConsoleBackend& console() { return *console_; }
  Builder& builder() { return *builder_; }
  Toolstack& toolstack() { return *toolstack_; }
  PciBackService& pci_service() { return *pci_service_; }

  // Total control-plane memory: one number, Dom0's allocation (§6.1.1).
  std::uint64_t ControlPlaneMemoryMb() const;

 private:
  GuestRecord* FindGuest(DomainId guest) override {
    return toolstack_->guest(guest);
  }
  bool CoLocationActive() const {
    return net_streams_ > 0 && disk_streams_ > 0;
  }

  bool booted_ = false;
  DomainId dom0_;
  PciBus pci_bus_;
  std::unique_ptr<NicDevice> nic_;
  std::unique_ptr<DiskDevice> disk_;
  std::unique_ptr<SerialDevice> serial_;
  std::unique_ptr<ConsoleBackend> console_;
  std::unique_ptr<PciBackService> pci_service_;
  std::unique_ptr<Builder> builder_;
  std::unique_ptr<NetBack> netback_;
  std::unique_ptr<BlkBack> blkback_;
  std::unique_ptr<Toolstack> toolstack_;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_MONOLITHIC_PLATFORM_H_
