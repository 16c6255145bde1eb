// PCIBack (§5.3): hardware initialization and the PCI configuration-space
// multiplexer.
//
// PCIBack is the closest analogue Xoar has to Dom0: at boot it initializes
// the hardware, enumerates the PCI bus, and fires udev-style rules that
// request one NetBack/BlkBack driver domain per network/disk controller.
// Driver domains access their peripherals directly, but the *shared* config
// space stays multiplexed here; once every device is initialized and no
// further config access is needed, PCIBack can be destroyed entirely,
// removing a privileged component from the running system.
#ifndef XOAR_SRC_CTL_PCIBACK_H_
#define XOAR_SRC_CTL_PCIBACK_H_

#include <functional>
#include <map>
#include <vector>

#include "src/base/audit_log.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/dev/pci.h"
#include "src/hv/hypervisor.h"

namespace xoar {

class PciBackService {
 public:
  // Fired once per discovered device of a driver-domain class (network or
  // storage) — the udev rule that asks the Builder for a driver domain.
  using UdevRule = std::function<void(const PciDeviceInfo& device)>;

  PciBackService(Hypervisor* hv, PciBus* bus, DomainId self)
      : hv_(hv), bus_(bus), self_(self) {}

  DomainId self() const { return self_; }

  // Claims the hardware capabilities (PCI bus control, interrupt routing,
  // I/O ports, MMIO) and enumerates the bus. `grantor` is whoever may assign
  // capabilities (the Bootstrapper in Xoar, Dom0 itself in stock Xen).
  Status InitializeHardware(DomainId grantor);

  const std::vector<PciDeviceInfo>& discovered() const { return discovered_; }

  // Audit sink for kPciAssigned records (§3.2.2); optional, set by the
  // platform.
  void set_audit_log(AuditLog* audit) { audit_ = audit; }

  void set_udev_rule(UdevRule rule) { udev_rule_ = std::move(rule); }
  // Runs the udev rules over discovered network/storage controllers.
  void TriggerUdevRules();

  // Passes a device through to a driver domain (wraps the Fig 3.1 call;
  // requires kDomctlSetPrivileges, which PCIBack holds).
  Status PassThrough(DomainId target, const PciSlot& slot);

  // Config-space proxy: the caller must have been assigned the device.
  StatusOr<std::uint32_t> ProxyConfigRead(DomainId caller, const PciSlot& slot,
                                          std::uint8_t offset);
  Status ProxyConfigWrite(DomainId caller, const PciSlot& slot,
                          std::uint8_t offset, std::uint32_t value);

  // SR-IOV (§5.3): carves `count` virtual functions out of a physical
  // device. The multiplexing moves into hardware — but provisioning VFs on
  // the fly needs a *persistent* shard to assign interrupts and multiplex
  // the config space, so PCIBack can no longer self-destruct afterwards
  // (the paper's irony: "such techniques may increase the number of
  // shared, trusted components").
  StatusOr<std::vector<PciSlot>> CreateVirtualFunctions(const PciSlot& parent,
                                                        int count);
  bool sriov_active() const { return sriov_active_; }

  // §5.3: after steady state, PCIBack removes itself from the TCB.
  Status SelfDestruct();
  bool destroyed() const { return destroyed_; }

 private:
  Status CheckProxyAccess(DomainId caller, const PciSlot& slot) const;

  Hypervisor* hv_;
  PciBus* bus_;
  DomainId self_;
  AuditLog* audit_ = nullptr;
  bool hardware_initialized_ = false;
  bool destroyed_ = false;
  bool sriov_active_ = false;
  std::map<PciSlot, int> vf_counts_;  // next VF index per physical function
  std::vector<PciDeviceInfo> discovered_;
  UdevRule udev_rule_;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_PCIBACK_H_
