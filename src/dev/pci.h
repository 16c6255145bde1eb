// Simulated PCI bus (§5.3).
//
// The bus carries the machine's peripherals and their configuration spaces.
// The configuration space is a *shared* resource: even with devices passed
// through to driver domains, a single component (PCIBack, or Dom0 in stock
// Xen) must multiplex access to it. Config-space reads/writes are gated by
// the hypervisor's kPciBusControl hardware capability at the service layer.
#ifndef XOAR_SRC_DEV_PCI_H_
#define XOAR_SRC_DEV_PCI_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/hv/pci_slot.h"

namespace xoar {

enum class PciClass : std::uint8_t {
  kNetwork,
  kStorage,
  kSerial,
  kBridge,
  kOther,
};

struct PciDeviceInfo {
  PciSlot slot;
  std::uint16_t vendor_id = 0;
  std::uint16_t device_id = 0;
  PciClass device_class = PciClass::kOther;
  std::string name;
};

class PciBus {
 public:
  // Registers a device on the bus (platform assembly time).
  Status AddDevice(const PciDeviceInfo& info);

  // Bus enumeration, as performed by Dom0 or PCIBack during boot.
  std::vector<PciDeviceInfo> Enumerate() const;
  StatusOr<PciDeviceInfo> Find(const PciSlot& slot) const;
  // First device of a class, if any (used by udev-style rules).
  std::vector<PciDeviceInfo> FindByClass(PciClass cls) const;

  // 256-byte configuration space per device. Device initialisation uses
  // these registers; steady-state operation does not (§5.3).
  StatusOr<std::uint32_t> ReadConfig(const PciSlot& slot, std::uint8_t offset);
  Status WriteConfig(const PciSlot& slot, std::uint8_t offset,
                     std::uint32_t value);

  std::uint64_t config_accesses() const { return config_accesses_; }

 private:
  struct DeviceRecord {
    PciDeviceInfo info;
    std::array<std::uint8_t, 256> config{};
  };

  std::map<PciSlot, DeviceRecord> devices_;
  std::uint64_t config_accesses_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_DEV_PCI_H_
