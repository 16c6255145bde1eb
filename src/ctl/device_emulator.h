// Device emulation for HVM guests (§4.5.2): a per-guest QEMU.
//
// Stock Xen runs one QEMU process per HVM guest *inside Dom0*, with the
// privilege to map any page of its guest for DMA emulation — and, because it
// lives in Dom0, a compromise yields Dom0. Xoar hosts each emulator in its
// own stub domain (QemuVM) flagged privileged-for exactly its guest, so a
// compromised emulator holds nothing but that one guest (§6.2.1: all 7
// device-emulation CVEs contained).
#ifndef XOAR_SRC_CTL_DEVICE_EMULATOR_H_
#define XOAR_SRC_CTL_DEVICE_EMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/hv/hypervisor.h"

namespace xoar {

// The catalogue of emulated hardware a QEMU instance provides (§4.5.2).
enum class EmulatedDevice : std::uint8_t {
  kBios,
  kSerialPort,
  kIdeController,
  kNicRtl8139,
  kVgaFrameBuffer,
};

std::string_view EmulatedDeviceName(EmulatedDevice device);

class DeviceEmulator {
 public:
  // `host` is the domain the emulator runs in: Dom0 in stock Xen, a
  // dedicated QemuVM stub domain in Xoar.
  DeviceEmulator(Hypervisor* hv, DomainId host, DomainId guest)
      : hv_(hv), host_(host), guest_(guest) {}

  DomainId host() const { return host_; }
  DomainId guest() const { return guest_; }

  // Emulated DMA: maps a guest page. This is the operation that requires
  // the privileged-for flag (§5.6).
  StatusOr<MappedPage> EmulateDma(Pfn guest_pfn);

  // Port I/O trap servicing: UNAVAILABLE unless the emulator's domain runs.
  Status HandleIoExit(EmulatedDevice device);

  std::uint64_t dma_maps() const { return dma_maps_; }

  static std::vector<EmulatedDevice> DeviceModel();

 private:
  Hypervisor* hv_;
  DomainId host_;
  DomainId guest_;
  std::uint64_t dma_maps_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_DEVICE_EMULATOR_H_
