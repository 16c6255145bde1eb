#include "src/ctl/device_emulator.h"

namespace xoar {

std::string_view EmulatedDeviceName(EmulatedDevice device) {
  switch (device) {
    case EmulatedDevice::kBios:
      return "BIOS";
    case EmulatedDevice::kSerialPort:
      return "serial";
    case EmulatedDevice::kIdeController:
      return "IDE";
    case EmulatedDevice::kNicRtl8139:
      return "rtl8139";
    case EmulatedDevice::kVgaFrameBuffer:
      return "VGA";
  }
  return "unknown";
}

StatusOr<MappedPage> DeviceEmulator::EmulateDma(Pfn guest_pfn) {
  XOAR_ASSIGN_OR_RETURN(MappedPage page,
                        hv_->ForeignMap(host_, guest_, guest_pfn));
  ++dma_maps_;
  return page;
}

Status DeviceEmulator::HandleIoExit(EmulatedDevice device) {
  (void)device;
  const Domain* host = hv_->domain(host_);
  if (host == nullptr || host->state() != DomainState::kRunning) {
    return UnavailableError("emulator domain is not running");
  }
  return Status::Ok();
}

std::vector<EmulatedDevice> DeviceEmulator::DeviceModel() {
  return {EmulatedDevice::kBios, EmulatedDevice::kSerialPort,
          EmulatedDevice::kIdeController, EmulatedDevice::kNicRtl8139,
          EmulatedDevice::kVgaFrameBuffer};
}

}  // namespace xoar
