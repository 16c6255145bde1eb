#include "src/dev/pci.h"

#include "src/base/strings.h"

namespace xoar {

Status PciBus::AddDevice(const PciDeviceInfo& info) {
  if (devices_.count(info.slot) > 0) {
    return AlreadyExistsError(StrFormat("PCI slot %s already populated",
                                        info.slot.ToString().c_str()));
  }
  DeviceRecord record;
  record.info = info;
  // Standard header: vendor/device id at offset 0.
  record.config[0] = static_cast<std::uint8_t>(info.vendor_id & 0xff);
  record.config[1] = static_cast<std::uint8_t>(info.vendor_id >> 8);
  record.config[2] = static_cast<std::uint8_t>(info.device_id & 0xff);
  record.config[3] = static_cast<std::uint8_t>(info.device_id >> 8);
  devices_.emplace(info.slot, std::move(record));
  return Status::Ok();
}

std::vector<PciDeviceInfo> PciBus::Enumerate() const {
  std::vector<PciDeviceInfo> out;
  out.reserve(devices_.size());
  for (const auto& [slot, record] : devices_) {
    out.push_back(record.info);
  }
  return out;
}

StatusOr<PciDeviceInfo> PciBus::Find(const PciSlot& slot) const {
  auto it = devices_.find(slot);
  if (it == devices_.end()) {
    return NotFoundError(
        StrFormat("no device at PCI slot %s", slot.ToString().c_str()));
  }
  return it->second.info;
}

std::vector<PciDeviceInfo> PciBus::FindByClass(PciClass cls) const {
  std::vector<PciDeviceInfo> out;
  for (const auto& [slot, record] : devices_) {
    if (record.info.device_class == cls) {
      out.push_back(record.info);
    }
  }
  return out;
}

StatusOr<std::uint32_t> PciBus::ReadConfig(const PciSlot& slot,
                                           std::uint8_t offset) {
  auto it = devices_.find(slot);
  if (it == devices_.end()) {
    return NotFoundError(
        StrFormat("no device at PCI slot %s", slot.ToString().c_str()));
  }
  ++config_accesses_;
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) |
            it->second.config[static_cast<std::uint8_t>(offset + i)];
  }
  return value;
}

Status PciBus::WriteConfig(const PciSlot& slot, std::uint8_t offset,
                           std::uint32_t value) {
  auto it = devices_.find(slot);
  if (it == devices_.end()) {
    return NotFoundError(
        StrFormat("no device at PCI slot %s", slot.ToString().c_str()));
  }
  ++config_accesses_;
  for (int i = 0; i < 4; ++i) {
    it->second.config[static_cast<std::uint8_t>(offset + i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
  return Status::Ok();
}

}  // namespace xoar
