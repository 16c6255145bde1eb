#include "src/hv/hypervisor.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

std::string_view HwCapabilityName(HwCapability cap) {
  switch (cap) {
    case HwCapability::kSerialConsole:
      return "serial_console";
    case HwCapability::kIoPorts:
      return "io_ports";
    case HwCapability::kMmio:
      return "mmio";
    case HwCapability::kInterruptRouting:
      return "interrupt_routing";
    case HwCapability::kPciBusControl:
      return "pci_bus_control";
    case HwCapability::kCount:
      break;
  }
  return "unknown";
}

Hypervisor::Hypervisor(Simulator* sim, Options options, Obs* obs)
    : sim_(sim),
      options_(options),
      obs_(obs),
      m_hypercalls_(obs_->metrics().GetCounter("hv.hypercall.total")),
      m_denied_(obs_->metrics().GetCounter("hv.hypercall.denied")),
      m_grant_creates_(obs_->metrics().GetCounter("hv.grant.creates")),
      m_grant_maps_(obs_->metrics().GetCounter("hv.grant.maps")),
      m_grant_unmaps_(obs_->metrics().GetCounter("hv.grant.unmaps")),
      m_domain_creates_(obs_->metrics().GetCounter("hv.domain.creates")),
      m_domain_destroys_(obs_->metrics().GetCounter("hv.domain.destroys")),
      m_domains_live_(obs_->metrics().GetGauge("hv.domain.live")),
      memory_(options.total_memory_bytes),
      evtchn_(sim, obs_) {
  hw_capability_holder_.fill(DomainId::Invalid());
}

void Hypervisor::Audit(const std::string& event) {
  XLOG(kDebug) << "[hv] " << event;
  if (audit_hook_) {
    audit_hook_(event);
  }
}

DomainId Hypervisor::NextDomainId() { return DomainId(next_domid_++); }

DomainId Hypervisor::AddDomain(std::unique_ptr<Domain> dom) {
  const DomainId id = dom->id();
  if (id.value() >= domains_.size()) {
    domains_.resize(std::size_t{id.value()} + 1);
  }
  const Domain& added = *dom;
  domains_[id.value()] = std::move(dom);
  ++live_count_;
  m_domain_creates_->Increment();
  m_domains_live_->Set(static_cast<double>(live_count_));
  obs_->tracer().SetTrackName(
      id.value(), StrFormat("dom%u %s", id.value(), added.name().c_str()));
  return id;
}

Domain* Hypervisor::domain(DomainId id) {
  return id.value() < domains_.size() ? domains_[id.value()].get() : nullptr;
}

const Domain* Hypervisor::domain(DomainId id) const {
  return id.value() < domains_.size() ? domains_[id.value()].get() : nullptr;
}

std::vector<DomainId> Hypervisor::AllDomains() const {
  ++domain_table_scans_;
  std::vector<DomainId> out;
  out.reserve(live_count_);
  for (const auto& dom : domains_) {
    if (dom != nullptr && dom->alive()) {
      out.push_back(dom->id());
    }
  }
  return out;
}

Status Hypervisor::CheckCallerAlive(DomainId caller) const {
  const Domain* dom = domain(caller);
  if (dom == nullptr || !dom->alive()) {
    return PermissionDeniedError(
        StrFormat("caller dom%u does not exist or is dead", caller.value()));
  }
  return Status::Ok();
}

Status Hypervisor::CheckHypercall(DomainId caller, Hypercall hc) {
  ++hypercall_counts_[static_cast<std::size_t>(hc)];
  m_hypercalls_->Increment();
  obs_->tracer().Op(TraceCategory::kHypercall, HypercallName(hc),
                    caller.value());
  Status alive = CheckCallerAlive(caller);
  if (!alive.ok()) {
    ++denied_;
    m_denied_->Increment();
    return alive;
  }
  if (IsUnprivilegedHypercall(hc)) {
    return Status::Ok();
  }
  const Domain* dom = domain(caller);
  if (dom->is_control_domain()) {
    return Status::Ok();
  }
  if (dom->is_shard() && dom->hypercall_policy().Permits(hc)) {
    return Status::Ok();
  }
  ++denied_;
  m_denied_->Increment();
  Audit(StrFormat("DENY hypercall %s from dom%u (%s)",
                  std::string(HypercallName(hc)).c_str(), caller.value(),
                  dom->name().c_str()));
  return PermissionDeniedError(
      StrFormat("dom%u may not invoke %s", caller.value(),
                std::string(HypercallName(hc)).c_str()));
}

Status Hypervisor::CheckManagement(DomainId caller, DomainId target) const {
  const Domain* caller_dom = domain(caller);
  const Domain* target_dom = domain(target);
  if (caller_dom == nullptr || target_dom == nullptr) {
    return NotFoundError("caller or target domain does not exist");
  }
  if (caller_dom->is_control_domain()) {
    return Status::Ok();
  }
  if (caller == target) {
    return Status::Ok();  // self-management (self-destructing shards, §5.2)
  }
  // §5.6: privileged VM-management hypercalls are audited against the parent
  // toolstack flag set at creation.
  if (target_dom->parent_toolstack() == caller) {
    return Status::Ok();
  }
  // The Builder keeps management rights over domains it instantiated.
  if (target_dom->creator() == caller) {
    return Status::Ok();
  }
  // Fig 3.1: shards delegated to a toolstack may be administered by it.
  if (target_dom->IsDelegatedTo(caller)) {
    return Status::Ok();
  }
  return PermissionDeniedError(
      StrFormat("dom%u is neither parent toolstack nor delegate of dom%u",
                caller.value(), target.value()));
}

Status Hypervisor::CheckIvcAllowed(DomainId a, DomainId b) const {
  if (!options_.enforce_shard_sharing_policy) {
    return Status::Ok();
  }
  if (a == b) {
    return Status::Ok();
  }
  const Domain* da = domain(a);
  const Domain* db = domain(b);
  if (da == nullptr || db == nullptr) {
    return NotFoundError("IVC endpoint does not exist");
  }
  if (da->is_control_domain() || db->is_control_domain()) {
    return Status::Ok();
  }
  // Two shards may communicate with each other (e.g. Toolstack <-> Builder,
  // XenStore-Logic <-> XenStore-State).
  if (da->is_shard() && db->is_shard()) {
    return Status::Ok();
  }
  // Shard <-> guest requires the guest to be delegated to use that shard
  // (§5.6: "requests ... are blocked if at least one of the VMs is not a
  // shard, or if the guest VM is not delegated to use that particular
  // shard").
  if (da->is_shard() && db->MayUseShard(a)) {
    return Status::Ok();
  }
  if (db->is_shard() && da->MayUseShard(b)) {
    return Status::Ok();
  }
  // Device-emulation stubs are privileged for exactly their guest.
  if (da->IsPrivilegedFor(b) || db->IsPrivilegedFor(a)) {
    return Status::Ok();
  }
  return PermissionDeniedError(
      StrFormat("IVC between dom%u and dom%u violates sharing policy",
                a.value(), b.value()));
}

// --- Domain lifecycle -------------------------------------------------------

StatusOr<DomainId> Hypervisor::CreateInitialDomain(const DomainConfig& config,
                                                   bool as_control_domain) {
  if (!domains_.empty()) {
    return FailedPreconditionError("initial domain already exists");
  }
  if (config.vcpus < 1) {
    return InvalidArgumentError("domain needs at least one vcpu");
  }
  DomainId id = NextDomainId();
  auto dom = std::make_unique<Domain>(id, config);
  dom->set_control_domain(as_control_domain);
  dom->set_created_at(sim_->Now());
  XOAR_ASSIGN_OR_RETURN(
      Pfn first,
      memory_.AllocatePages(id, config.memory_mb * kMiB / kPageSize));
  dom->SetMemoryRange(first, config.memory_mb * kMiB / kPageSize);
  dom->set_state(DomainState::kRunning);
  Audit(StrFormat("create-initial dom%u name=%s control=%d", id.value(),
                  config.name.c_str(), as_control_domain ? 1 : 0));
  return AddDomain(std::move(dom));
}

StatusOr<DomainId> Hypervisor::CreateDomain(DomainId caller,
                                            const DomainConfig& config,
                                            DomainId on_behalf_of) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlCreate));
  if (config.memory_mb == 0) {
    return InvalidArgumentError("domain memory must be nonzero");
  }
  // Xen's XEN_DOMCTL_max_vcpus refuses zero too.
  if (config.vcpus < 1) {
    return InvalidArgumentError("domain needs at least one vcpu");
  }
  DomainId id = NextDomainId();
  auto dom = std::make_unique<Domain>(id, config);
  dom->set_created_at(sim_->Now());
  dom->set_parent_toolstack(on_behalf_of.valid() ? on_behalf_of : caller);
  dom->set_creator(caller);
  StatusOr<Pfn> first =
      memory_.AllocatePages(id, config.memory_mb * kMiB / kPageSize);
  if (!first.ok()) {
    return first.status();
  }
  dom->SetMemoryRange(*first, config.memory_mb * kMiB / kPageSize);
  dom->set_state(DomainState::kBuilding);
  Audit(StrFormat("create dom%u name=%s by=dom%u parent=dom%u shard=%d",
                  id.value(), config.name.c_str(), caller.value(),
                  dom->parent_toolstack().value(), config.is_shard ? 1 : 0));
  return AddDomain(std::move(dom));
}

Status Hypervisor::FinishBuild(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlCreate));
  Domain* dom = domain(target);
  if (dom == nullptr) {
    return NotFoundError("no such domain");
  }
  if (dom->state() != DomainState::kBuilding) {
    return FailedPreconditionError("domain is not being built");
  }
  dom->set_state(DomainState::kPaused);
  return Status::Ok();
}

Status Hypervisor::UnpauseDomain(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlUnpause));
  XOAR_RETURN_IF_ERROR(CheckManagement(caller, target));
  Domain* dom = domain(target);
  if (dom->state() != DomainState::kPaused) {
    return FailedPreconditionError(
        StrFormat("dom%u is %s, not paused", target.value(),
                  std::string(DomainStateName(dom->state())).c_str()));
  }
  dom->set_state(DomainState::kRunning);
  Audit(StrFormat("unpause dom%u by dom%u", target.value(), caller.value()));
  return Status::Ok();
}

Status Hypervisor::PauseDomain(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlPause));
  XOAR_RETURN_IF_ERROR(CheckManagement(caller, target));
  Domain* dom = domain(target);
  if (dom->state() != DomainState::kRunning) {
    return FailedPreconditionError("domain is not running");
  }
  dom->set_state(DomainState::kPaused);
  Audit(StrFormat("pause dom%u by dom%u", target.value(), caller.value()));
  return Status::Ok();
}

Status Hypervisor::DestroyDomain(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlDestroy));
  XOAR_RETURN_IF_ERROR(CheckManagement(caller, target));
  Domain* dom = domain(target);
  if (!dom->alive()) {
    return FailedPreconditionError("domain already dead");
  }
  dom->set_state(DomainState::kDead);
  --live_count_;
  dom->grant_table().RevokeAll();
  evtchn_.CloseAll(target);
  memory_.FreeDomainPages(target);
  for (const PciSlot& slot : dom->pci_devices()) {
    pci_owner_.erase(slot);
  }
  // Hardware capabilities held by a destroyed domain return to the pool
  // (PCIBack self-destructs after boot, §5.3).
  for (auto& holder : hw_capability_holder_) {
    if (holder == target) {
      holder = DomainId::Invalid();
    }
  }
  Audit(StrFormat("destroy dom%u by dom%u", target.value(), caller.value()));
  m_domain_destroys_->Increment();
  m_domains_live_->Set(static_cast<double>(live_count_));
  return Status::Ok();
}

Status Hypervisor::BeginReboot(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kSnapshotOp));
  XOAR_RETURN_IF_ERROR(CheckManagement(caller, target));
  Domain* dom = domain(target);
  // A dead domain may also be rebooted: that is precisely how a crashed
  // shard is recovered (the watchdog's dead-domain path). CloseAll and
  // RevokeAll are idempotent, so re-tearing-down a crashed domain's
  // already-torn-down channels is harmless.
  if (dom->state() != DomainState::kRunning &&
      dom->state() != DomainState::kDead) {
    return FailedPreconditionError("only running or dead domains can microreboot");
  }
  if (dom->state() == DomainState::kDead) {
    ++live_count_;  // resurrection: the crashed shard is coming back
  }
  dom->set_state(DomainState::kRebooting);
  // Peers observe their channels break and renegotiate on reconnect.
  evtchn_.CloseAll(target);
  dom->grant_table().RevokeAll();
  Audit(StrFormat("microreboot-begin dom%u by dom%u", target.value(),
                  caller.value()));
  return Status::Ok();
}

Status Hypervisor::CompleteReboot(DomainId caller, DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kSnapshotOp));
  XOAR_RETURN_IF_ERROR(CheckManagement(caller, target));
  Domain* dom = domain(target);
  if (dom->state() != DomainState::kRebooting) {
    return FailedPreconditionError("domain is not rebooting");
  }
  dom->set_state(DomainState::kRunning);
  dom->IncrementRebootCount();
  // A reboot can resurrect a crashed (dead) domain, so the live-domain
  // gauge ReportCrash decremented has to be refreshed here.
  m_domains_live_->Set(static_cast<double>(live_count_));
  Audit(StrFormat("microreboot-complete dom%u (count=%d)", target.value(),
                  dom->reboot_count()));
  return Status::Ok();
}

void Hypervisor::ReportCrash(DomainId id) {
  Domain* dom = domain(id);
  if (dom == nullptr) {
    return;
  }
  Audit(StrFormat("crash dom%u (%s)", id.value(), dom->name().c_str()));
  if (dom->is_control_domain() && options_.control_domain_crash_reboots_host) {
    // §5.8: stock Xen assumes a Dom0 failure is critical and reboots the
    // entire host. Xoar removes this assumption.
    host_failed_ = true;
    Audit("HOST REBOOT: control domain failure is fatal in stock Xen");
    return;
  }
  if (dom->alive()) {
    --live_count_;
  }
  dom->set_state(DomainState::kDead);
  dom->grant_table().RevokeAll();
  evtchn_.CloseAll(id);
  m_domains_live_->Set(static_cast<double>(live_count_));
}

// --- Fig 3.1 privilege-assignment API ---------------------------------------

Status Hypervisor::AssignPciDevice(DomainId caller, DomainId target,
                                   const PciSlot& slot) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlSetPrivileges));
  Domain* target_dom = domain(target);
  if (target_dom == nullptr || !target_dom->alive()) {
    return NotFoundError("target domain does not exist");
  }
  // Note: guests may also receive direct device assignment (§4.5.3; the
  // §3.4.2 private-cloud scenario assigns SR-IOV virtual functions straight
  // to user VMs), so there is deliberately no shard-only restriction here.
  // "the hypervisor checks the availability of the device to ensure it is
  // not already assigned to another VM" (§3.1). Resolved through the slot
  // index; an entry whose holder has since died does not block reassignment
  // (the old domain-table scan skipped dead domains too).
  auto assigned = pci_owner_.find(slot);
  if (assigned != pci_owner_.end()) {
    const Domain* holder = domain(assigned->second);
    if (holder != nullptr && holder->alive()) {
      return AlreadyExistsError(StrFormat(
          "PCI device %s already assigned to dom%u", slot.ToString().c_str(),
          assigned->second.value()));
    }
  }
  target_dom->AddPciDevice(slot);
  pci_owner_[slot] = target;
  Audit(StrFormat("assign-pci %s -> dom%u by dom%u", slot.ToString().c_str(),
                  target.value(), caller.value()));
  return Status::Ok();
}

Status Hypervisor::PermitHypercall(DomainId caller, DomainId target,
                                   Hypercall hc) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlSetPrivileges));
  Domain* target_dom = domain(target);
  if (target_dom == nullptr || !target_dom->alive()) {
    return NotFoundError("target domain does not exist");
  }
  if (!target_dom->is_shard() && !target_dom->is_control_domain()) {
    return PermissionDeniedError(
        StrFormat("dom%u is not a shard; cannot whitelist %s", target.value(),
                  std::string(HypercallName(hc)).c_str()));
  }
  target_dom->hypercall_policy().Permit(hc);
  Audit(StrFormat("permit-hypercall %s -> dom%u by dom%u",
                  std::string(HypercallName(hc)).c_str(), target.value(),
                  caller.value()));
  return Status::Ok();
}

Status Hypervisor::AllowDelegation(DomainId caller, DomainId target,
                                   DomainId toolstack) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlDelegate));
  Domain* target_dom = domain(target);
  Domain* ts_dom = domain(toolstack);
  if (target_dom == nullptr || ts_dom == nullptr) {
    return NotFoundError("target or toolstack domain does not exist");
  }
  if (!target_dom->is_shard()) {
    return PermissionDeniedError("only shards can be delegated");
  }
  target_dom->AddDelegation(toolstack);
  Audit(StrFormat("delegate dom%u -> toolstack dom%u by dom%u", target.value(),
                  toolstack.value(), caller.value()));
  return Status::Ok();
}

Status Hypervisor::SetPrivilegedFor(DomainId caller, DomainId subject,
                                    DomainId target) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlSetPrivileges));
  Domain* subject_dom = domain(subject);
  Domain* target_dom = domain(target);
  if (subject_dom == nullptr || target_dom == nullptr) {
    return NotFoundError("subject or target domain does not exist");
  }
  subject_dom->AddPrivilegedFor(target);
  Audit(StrFormat("privileged-for dom%u over dom%u by dom%u", subject.value(),
                  target.value(), caller.value()));
  return Status::Ok();
}

Status Hypervisor::AuthorizeShardUse(DomainId caller, DomainId guest,
                                     DomainId shard) {
  XOAR_RETURN_IF_ERROR(CheckCallerAlive(caller));
  Domain* guest_dom = domain(guest);
  Domain* shard_dom = domain(shard);
  if (guest_dom == nullptr || shard_dom == nullptr) {
    return NotFoundError("guest or shard domain does not exist");
  }
  const Domain* caller_dom = domain(caller);
  if (!caller_dom->is_control_domain()) {
    // §5.6: "A Toolstack can only use shards that have been delegated to it
    // as shared resource providers for VMs that it requests built."
    XOAR_RETURN_IF_ERROR(CheckManagement(caller, guest));
    if (!shard_dom->is_shard()) {
      return PermissionDeniedError(
          StrFormat("dom%u is not a shard and cannot be used as a resource "
                    "provider",
                    shard.value()));
    }
    if (!shard_dom->IsDelegatedTo(caller)) {
      return PermissionDeniedError(
          StrFormat("shard dom%u is not delegated to toolstack dom%u",
                    shard.value(), caller.value()));
    }
  }
  guest_dom->AuthorizeShard(shard);
  Audit(StrFormat("authorize-shard guest=dom%u shard=dom%u by dom%u",
                  guest.value(), shard.value(), caller.value()));
  return Status::Ok();
}

// --- Hardware capabilities ---------------------------------------------------

Status Hypervisor::GrantHwCapability(DomainId caller, DomainId target,
                                     HwCapability cap) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kDomctlSetPrivileges));
  Domain* target_dom = domain(target);
  if (target_dom == nullptr || !target_dom->alive()) {
    return NotFoundError("target domain does not exist");
  }
  DomainId& holder = hw_capability_holder_[static_cast<std::size_t>(cap)];
  if (holder.valid() && holder != target) {
    const Domain* current = domain(holder);
    if (current != nullptr && current->alive()) {
      return AlreadyExistsError(
          StrFormat("capability %s already held by dom%u",
                    std::string(HwCapabilityName(cap)).c_str(), holder.value()));
    }
  }
  holder = target;
  Audit(StrFormat("grant-hw %s -> dom%u by dom%u",
                  std::string(HwCapabilityName(cap)).c_str(), target.value(),
                  caller.value()));
  return Status::Ok();
}

DomainId Hypervisor::HwCapabilityHolder(HwCapability cap) const {
  return hw_capability_holder_[static_cast<std::size_t>(cap)];
}

Status Hypervisor::CheckHwCapability(DomainId caller, HwCapability cap) const {
  const Domain* dom = domain(caller);
  if (dom == nullptr || !dom->alive()) {
    return PermissionDeniedError("caller does not exist");
  }
  if (dom->is_control_domain()) {
    return Status::Ok();
  }
  if (hw_capability_holder_[static_cast<std::size_t>(cap)] == caller) {
    return Status::Ok();
  }
  return PermissionDeniedError(
      StrFormat("dom%u does not hold hardware capability %s", caller.value(),
                std::string(HwCapabilityName(cap)).c_str()));
}

// --- Memory -------------------------------------------------------------------

StatusOr<Pfn> Hypervisor::PopulateDomainMemory(DomainId caller, DomainId target,
                                               std::uint64_t bytes) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kForeignMemoryMap));
  Domain* dom = domain(target);
  if (dom == nullptr) {
    return NotFoundError("target domain does not exist");
  }
  return memory_.AllocatePages(target, (bytes + kPageSize - 1) / kPageSize);
}

StatusOr<MappedPage> Hypervisor::ForeignMap(DomainId caller, DomainId target,
                                            Pfn pfn) {
  XOAR_RETURN_IF_ERROR(CheckCallerAlive(caller));
  const Domain* caller_dom = domain(caller);
  const Domain* target_dom = domain(target);
  if (target_dom == nullptr) {
    return NotFoundError("target domain does not exist");
  }
  // Three ways in: full control domain, the Builder-class whitelist, or a
  // per-guest privileged-for flag (QemuVM DMA, §5.6).
  const bool allowed =
      caller_dom->is_control_domain() ||
      (caller_dom->is_shard() &&
       caller_dom->hypercall_policy().Permits(Hypercall::kForeignMemoryMap)) ||
      caller_dom->IsPrivilegedFor(target);
  ++hypercall_counts_[static_cast<std::size_t>(Hypercall::kForeignMemoryMap)];
  m_hypercalls_->Increment();
  if (!allowed) {
    ++denied_;
    m_denied_->Increment();
    Audit(StrFormat("DENY foreign-map dom%u -> dom%u pfn=%llu", caller.value(),
                    target.value(),
                    static_cast<unsigned long long>(pfn.value())));
    return PermissionDeniedError(
        StrFormat("dom%u may not map memory of dom%u", caller.value(),
                  target.value()));
  }
  if (!memory_.IsOwnedBy(pfn, target)) {
    return PermissionDeniedError(
        StrFormat("pfn %llu is not owned by dom%u",
                  static_cast<unsigned long long>(pfn.value()), target.value()));
  }
  std::byte* data = memory_.PageData(pfn);
  return MappedPage{pfn, data, /*writable=*/true};
}

Status Hypervisor::BalloonDown(DomainId caller, std::uint64_t mb) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kMemoryOp));
  Domain* dom = domain(caller);
  const std::uint64_t pages = mb * kMiB / kPageSize;
  constexpr std::uint64_t kFloorPages = 16 * kMiB / kPageSize;
  if (pages == 0 || dom->page_count() < pages + kFloorPages) {
    return InvalidArgumentError(
        StrFormat("dom%u cannot balloon %llu MB below its %u MB floor",
                  caller.value(), static_cast<unsigned long long>(mb), 16));
  }
  // The guest surrenders the tail of its primary allocation.
  const Pfn tail(dom->first_pfn().value() + dom->page_count() - pages);
  XOAR_RETURN_IF_ERROR(memory_.FreeSpecificPages(caller, tail, pages));
  dom->SetMemoryRange(dom->first_pfn(), dom->page_count() - pages);
  dom->set_ballooned_out_pages(dom->ballooned_out_pages() + pages);
  Audit(StrFormat("balloon-down dom%u by %lluMB", caller.value(),
                  static_cast<unsigned long long>(mb)));
  return Status::Ok();
}

Status Hypervisor::BalloonUp(DomainId caller, std::uint64_t mb) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kMemoryOp));
  Domain* dom = domain(caller);
  const std::uint64_t pages = mb * kMiB / kPageSize;
  if (pages == 0 || pages > dom->ballooned_out_pages()) {
    return InvalidArgumentError(
        StrFormat("dom%u may only reclaim memory it ballooned out",
                  caller.value()));
  }
  // Reclaimed pages come from the free pool as a fresh extent; the
  // domain's allocation is no longer physically contiguous, which nothing
  // in the model depends on.
  XOAR_ASSIGN_OR_RETURN(Pfn extent, memory_.AllocatePages(caller, pages));
  (void)extent;
  dom->SetMemoryRange(dom->first_pfn(), dom->page_count() + pages);
  dom->set_ballooned_out_pages(dom->ballooned_out_pages() - pages);
  Audit(StrFormat("balloon-up dom%u by %lluMB", caller.value(),
                  static_cast<unsigned long long>(mb)));
  return Status::Ok();
}

// --- Grant table ops ---------------------------------------------------------

StatusOr<GrantRef> Hypervisor::GrantAccess(DomainId caller, DomainId grantee,
                                           Pfn pfn, bool writable) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kGrantTableOp));
  XOAR_RETURN_IF_ERROR(CheckIvcAllowed(caller, grantee));
  Domain* caller_dom = domain(caller);
  if (!memory_.IsOwnedBy(pfn, caller)) {
    return PermissionDeniedError(
        StrFormat("dom%u cannot grant pfn %llu it does not own",
                  caller.value(), static_cast<unsigned long long>(pfn.value())));
  }
  m_grant_creates_->Increment();
  obs_->tracer().Op(TraceCategory::kGrant, "grant_access", caller.value());
  return caller_dom->grant_table().CreateGrant(grantee, pfn, writable);
}

StatusOr<MappedPage> Hypervisor::MapGrant(DomainId caller, DomainId owner,
                                          GrantRef ref) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kGrantTableOp));
  XOAR_RETURN_IF_ERROR(CheckIvcAllowed(caller, owner));
  Domain* owner_dom = domain(owner);
  if (owner_dom == nullptr || !owner_dom->alive()) {
    return NotFoundError("grant owner does not exist");
  }
  XOAR_ASSIGN_OR_RETURN(GrantEntry entry, owner_dom->grant_table().Lookup(ref));
  if (entry.grantee != caller) {
    ++denied_;
    Audit(StrFormat("DENY grant-map dom%u tried ref %u of dom%u (grantee "
                    "dom%u)",
                    caller.value(), ref.value(), owner.value(),
                    entry.grantee.value()));
    return PermissionDeniedError(
        StrFormat("grant ref %u of dom%u is for dom%u, not dom%u", ref.value(),
                  owner.value(), entry.grantee.value(), caller.value()));
  }
  if (grant_map_fault_hook_ && grant_map_fault_hook_(caller, owner)) {
    return UnavailableError(
        StrFormat("grant map of ref %u failed (injected fault)", ref.value()));
  }
  XOAR_RETURN_IF_ERROR(owner_dom->grant_table().NoteMapped(ref));
  m_grant_maps_->Increment();
  obs_->tracer().Op(TraceCategory::kGrant, "grant_map", caller.value());
  std::byte* data = memory_.PageData(entry.pfn);
  return MappedPage{entry.pfn, data, entry.writable};
}

Status Hypervisor::UnmapGrant(DomainId caller, DomainId owner, GrantRef ref) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kGrantTableOp));
  Domain* owner_dom = domain(owner);
  if (owner_dom == nullptr) {
    return NotFoundError("grant owner does not exist");
  }
  XOAR_RETURN_IF_ERROR(owner_dom->grant_table().NoteUnmapped(ref));
  m_grant_unmaps_->Increment();
  obs_->tracer().Op(TraceCategory::kGrant, "grant_unmap", caller.value());
  return Status::Ok();
}

Status Hypervisor::EndGrantAccess(DomainId caller, GrantRef ref) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kGrantTableOp));
  return domain(caller)->grant_table().EndAccess(ref);
}

// --- Event channel ops -------------------------------------------------------

StatusOr<EvtchnPort> Hypervisor::EvtchnAllocUnbound(DomainId caller,
                                                    DomainId remote) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kEventChannelOp));
  XOAR_RETURN_IF_ERROR(CheckIvcAllowed(caller, remote));
  return evtchn_.AllocUnbound(caller, remote);
}

StatusOr<EvtchnPort> Hypervisor::EvtchnBindInterdomain(DomainId caller,
                                                       DomainId remote,
                                                       EvtchnPort remote_port) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kEventChannelOp));
  XOAR_RETURN_IF_ERROR(CheckIvcAllowed(caller, remote));
  return evtchn_.BindInterdomain(caller, remote, remote_port);
}

Status Hypervisor::EvtchnSend(DomainId caller, EvtchnPort port) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kEventChannelOp));
  return evtchn_.Send(caller, port);
}

Status Hypervisor::EvtchnSetHandler(DomainId caller, EvtchnPort port,
                                    EventChannelManager::Handler handler) {
  XOAR_RETURN_IF_ERROR(CheckCallerAlive(caller));
  return evtchn_.SetHandler(caller, port, std::move(handler));
}

Status Hypervisor::EvtchnClose(DomainId caller, EvtchnPort port) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kEventChannelOp));
  return evtchn_.Close(caller, port);
}

StatusOr<EvtchnPort> Hypervisor::BindVirq(DomainId caller, Virq virq) {
  XOAR_RETURN_IF_ERROR(CheckHypercall(caller, Hypercall::kVirqBind));
  // The console VIRQ goes to whichever domain holds the serial console
  // capability (§5.8); stock Xen hard-codes Dom0.
  if (virq == Virq::kConsole) {
    XOAR_RETURN_IF_ERROR(CheckHwCapability(caller, HwCapability::kSerialConsole));
  }
  return evtchn_.BindVirq(caller, virq);
}

Status Hypervisor::RaiseVirq(DomainId target, Virq virq) {
  return evtchn_.RaiseVirq(target, virq);
}

std::uint64_t Hypervisor::TotalHypercalls() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : hypercall_counts_) {
    total += c;
  }
  return total;
}

}  // namespace xoar
