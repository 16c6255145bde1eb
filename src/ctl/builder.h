// The Builder (§5.1, §5.6): the only component besides stock Dom0 with the
// privilege to arbitrarily write guest memory.
//
// It creates domain shells, populates their memory from a library of known
// good images (it never parses user-provided kernels — guests wanting a
// custom kernel get the pv-bootloader image, which loads the kernel from
// inside the guest), installs the XenStore and console rings (creating grant
// entries so those services run deprivileged, §5.6), registers the guest in
// XenStore, and records the parent toolstack that the hypervisor audits on
// every later management hypercall.
#ifndef XOAR_SRC_CTL_BUILDER_H_
#define XOAR_SRC_CTL_BUILDER_H_

#include <set>
#include <string>

#include "src/base/audit_log.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/drv/console.h"
#include "src/hv/hypervisor.h"
#include "src/xs/service.h"

namespace xoar {

// The image name used when a guest wants its own kernel (§5.2).
inline constexpr const char* kPvBootloaderImage = "pv-bootloader";

struct BuildRequest {
  DomainConfig config;
  std::string image = "guest-linux";  // must be in the known-good library
  bool allow_bootloader = false;      // fall back to kPvBootloaderImage
  bool connect_xenstore = true;
  bool connect_console = true;
  bool start_paused = false;
};

class Builder {
 public:
  Builder(Hypervisor* hv, XenStoreService* xs, DomainId self);

  DomainId self() const { return self_; }

  // Console service used for guest console setup; optional (early boot).
  void set_console(ConsoleBackend* console, bool console_uses_foreign_map) {
    console_ = console;
    console_foreign_map_ = console_uses_foreign_map;
  }

  // Audit sink for kVmBuilt records (§3.2.2); optional, set by the platform.
  void set_audit_log(AuditLog* audit) { audit_ = audit; }

  // Image library (§5.2: "library of known good images").
  bool HasImage(const std::string& name) const {
    return known_images_.count(name) > 0;
  }

  // Builds a VM on behalf of `toolstack`, which becomes its parent. Returns
  // the new domain id with the domain left running (or paused on request).
  StatusOr<DomainId> BuildVm(DomainId toolstack, const BuildRequest& request);

  // Builds a QemuVM stub domain (§4.5.2, §5.6) flagged privileged for
  // exactly `guest` — the flag the hypervisor checks on DMA emulation.
  StatusOr<DomainId> BuildEmulatorDomain(DomainId toolstack, DomainId guest);

  std::uint64_t builds() const { return builds_; }

 private:
  Hypervisor* hv_;
  XenStoreService* xs_;
  DomainId self_;
  AuditLog* audit_ = nullptr;
  ConsoleBackend* console_ = nullptr;
  bool console_foreign_map_ = false;
  std::set<std::string> known_images_;
  std::uint64_t builds_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_BUILDER_H_
