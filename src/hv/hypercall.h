// Hypercall numbering and per-domain hypercall policy.
//
// Xen exposes ~40 hypercalls; the set below models the ones the control
// plane actually exercises, split by privilege class. Xoar's Fig 3.1
// `permit_hypercall(hypercall id)` API whitelists individual *privileged*
// hypercalls per shard; everything in the unprivileged class is available to
// all guests, exactly as in the paper (§3.1).
#ifndef XOAR_SRC_HV_HYPERCALL_H_
#define XOAR_SRC_HV_HYPERCALL_H_

#include <bitset>
#include <cstdint>
#include <string_view>

namespace xoar {

enum class Hypercall : std::uint8_t {
  // --- Unprivileged: available to every guest VM. ---
  kEventChannelOp = 0,   // alloc/bind/send/close event channels
  kGrantTableOp,         // grant/map/unmap/end-access
  kSchedOp,              // yield, block
  kXenVersion,           // version probe
  kConsoleIo,            // write to own virtual console
  kMemoryOp,             // balloon own reservation

  // --- Privileged: Dom0-class operations, whitelisted per shard in Xoar. ---
  kDomctlCreate,         // create a domain shell
  kDomctlDestroy,        // destroy a domain
  kDomctlPause,          // pause a domain
  kDomctlUnpause,        // unpause a domain
  kDomctlSetPrivileges,  // assign privileges (Fig 3.1 API)
  kDomctlDelegate,       // delegate shard administration to a toolstack
  kForeignMemoryMap,     // map another domain's memory (VM building, QEMU DMA)
  kSetupGuestRings,      // install XenStore/console rings into a new guest
  kPhysdevOp,            // interrupt routing, I/O-port assignment
  kPciConfigOp,          // PCI configuration space access
  kSysctlReboot,         // reboot the physical host
  kSnapshotOp,           // vm_snapshot()/rollback (§3.3)
  kVirqBind,             // bind a hardware VIRQ (console, timer)

  kCount,
};

constexpr std::size_t kHypercallCount = static_cast<std::size_t>(Hypercall::kCount);

std::string_view HypercallName(Hypercall hc);

// True for hypercalls every guest may always issue.
constexpr bool IsUnprivilegedHypercall(Hypercall hc) {
  switch (hc) {
    case Hypercall::kEventChannelOp:
    case Hypercall::kGrantTableOp:
    case Hypercall::kSchedOp:
    case Hypercall::kXenVersion:
    case Hypercall::kConsoleIo:
    case Hypercall::kMemoryOp:
      return true;
    // VIRQ binding is unprivileged in itself; sensitive VIRQs (console) are
    // gated by hardware capabilities instead (§5.8).
    case Hypercall::kVirqBind:
      return true;
    default:
      return false;
  }
}

// Per-domain whitelist of privileged hypercalls (Fig 3.1: permit_hypercall).
class HypercallPolicy {
 public:
  void Permit(Hypercall hc) { permitted_.set(static_cast<std::size_t>(hc)); }
  bool Permits(Hypercall hc) const {
    return permitted_.test(static_cast<std::size_t>(hc));
  }
  bool Empty() const { return permitted_.none(); }
  std::size_t PermittedCount() const { return permitted_.count(); }

  // Grants the full privileged set — the stock-Xen Dom0 configuration.
  void PermitAll() { permitted_.set(); }

 private:
  std::bitset<kHypercallCount> permitted_;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_HYPERCALL_H_
