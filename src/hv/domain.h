// Domain (virtual machine) state as tracked by the hypervisor.
//
// A Domain carries the privilege state that Xoar's security argument rests
// on: the hypercall whitelist, assigned PCI devices, the parent-toolstack
// flag audited on management hypercalls (§5.6), delegation of shard
// administration, the privileged-for set used by QemuVM stub domains, and
// the list of shards a guest has been authorized to consume.
#ifndef XOAR_SRC_HV_DOMAIN_H_
#define XOAR_SRC_HV_DOMAIN_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "src/base/ids.h"
#include "src/base/units.h"
#include "src/hv/grant_table.h"
#include "src/hv/hypercall.h"
#include "src/hv/pci_slot.h"

namespace xoar {

enum class DomainState : std::uint8_t {
  kBuilding,   // shell created; builder is populating memory
  kPaused,     // built, not scheduled
  kRunning,
  kRebooting,  // microreboot in flight (§3.3): data path down
  kDead,
};

std::string_view DomainStateName(DomainState state);

// The OS a domain boots. Profiles differ in boot time, memory floor, and
// their contribution to the TCB line count (§5.7, §6.2).
enum class OsProfile : std::uint8_t {
  kNanOs,       // single-threaded minimal kernel (Bootstrapper, Builder)
  kMiniOs,      // stub-domain environment (XenStore, QemuVM)
  kLinux,       // full paravirtual Linux (driver domains, toolstack)
  kGuestLinux,  // a hosted guest's paravirtual Linux
  kHvmGuest,    // unmodified guest needing device emulation
};

std::string_view OsProfileName(OsProfile os);

struct DomainConfig {
  std::string name;
  std::uint64_t memory_mb = 128;
  int vcpus = 1;
  OsProfile os = OsProfile::kGuestLinux;
  // Declared through a `shard` block in the VM config file (§3.1). Only
  // shards may receive additional privileges or host service backends.
  bool is_shard = false;
  // Constraint tag for shard-sharing policy (§3.2.1). Empty = unconstrained.
  std::string constraint_tag;
};

class Domain {
 public:
  Domain(DomainId id, DomainConfig config)
      : id_(id), config_(std::move(config)) {}

  DomainId id() const { return id_; }
  const DomainConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }

  DomainState state() const { return state_; }
  void set_state(DomainState state) { state_ = state; }
  bool alive() const { return state_ != DomainState::kDead; }

  // --- Privilege state ---

  // Stock-Xen Dom0: unrestricted access to every interface.
  bool is_control_domain() const { return is_control_domain_; }
  void set_control_domain(bool v) { is_control_domain_ = v; }

  bool is_shard() const { return config_.is_shard; }

  HypercallPolicy& hypercall_policy() { return hypercall_policy_; }
  const HypercallPolicy& hypercall_policy() const { return hypercall_policy_; }

  const std::set<PciSlot>& pci_devices() const { return pci_devices_; }
  void AddPciDevice(const PciSlot& slot) { pci_devices_.insert(slot); }

  // Toolstack that requested this VM's build; management hypercalls are
  // audited against it (§5.6).
  DomainId parent_toolstack() const { return parent_toolstack_; }
  void set_parent_toolstack(DomainId id) { parent_toolstack_ = id; }

  // Domain that issued kDomctlCreate (the Builder in Xoar); retains
  // management rights so it can finish and start the build.
  DomainId creator() const { return creator_; }
  void set_creator(DomainId id) { creator_ = id; }

  // Toolstacks this shard's administration has been delegated to (Fig 3.1:
  // allow_delegation).
  const std::set<DomainId>& delegated_toolstacks() const {
    return delegated_toolstacks_;
  }
  void AddDelegation(DomainId toolstack) {
    delegated_toolstacks_.insert(toolstack);
  }
  bool IsDelegatedTo(DomainId toolstack) const {
    return delegated_toolstacks_.count(toolstack) > 0;
  }

  // Domains whose memory this domain may map (QemuVM ↔ its guest, §5.6).
  const std::set<DomainId>& privileged_for() const { return privileged_for_; }
  void AddPrivilegedFor(DomainId target) { privileged_for_.insert(target); }
  bool IsPrivilegedFor(DomainId target) const {
    return privileged_for_.count(target) > 0;
  }

  // Shards this (guest) domain has been authorized to consume; IVC setup to
  // any other shard is blocked by the hypervisor (§5.6).
  const std::set<DomainId>& usable_shards() const { return usable_shards_; }
  void AuthorizeShard(DomainId shard) { usable_shards_.insert(shard); }
  bool MayUseShard(DomainId shard) const {
    return usable_shards_.count(shard) > 0;
  }

  GrantTable& grant_table() { return grant_table_; }
  const GrantTable& grant_table() const { return grant_table_; }

  // --- Memory accounting ---
  Pfn first_pfn() const { return first_pfn_; }
  std::uint64_t page_count() const { return page_count_; }
  void SetMemoryRange(Pfn first, std::uint64_t count) {
    first_pfn_ = first;
    page_count_ = count;
  }
  std::uint64_t memory_bytes() const { return page_count_ * kPageSize; }

  // Pages returned to the hypervisor by ballooning, reclaimable later.
  std::uint64_t ballooned_out_pages() const { return ballooned_out_pages_; }
  void set_ballooned_out_pages(std::uint64_t n) { ballooned_out_pages_ = n; }

  // --- Lifecycle accounting ---
  int reboot_count() const { return reboot_count_; }
  void IncrementRebootCount() { ++reboot_count_; }
  SimTime created_at() const { return created_at_; }
  void set_created_at(SimTime t) { created_at_ = t; }

 private:
  DomainId id_;
  DomainConfig config_;
  DomainState state_ = DomainState::kBuilding;

  bool is_control_domain_ = false;
  HypercallPolicy hypercall_policy_;
  std::set<PciSlot> pci_devices_;
  DomainId parent_toolstack_;
  DomainId creator_;
  std::set<DomainId> delegated_toolstacks_;
  std::set<DomainId> privileged_for_;
  std::set<DomainId> usable_shards_;
  GrantTable grant_table_;

  Pfn first_pfn_;
  std::uint64_t page_count_ = 0;
  std::uint64_t ballooned_out_pages_ = 0;
  int reboot_count_ = 0;
  SimTime created_at_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_DOMAIN_H_
