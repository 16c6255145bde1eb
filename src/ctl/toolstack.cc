#include "src/ctl/toolstack.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

Toolstack::Toolstack(Hypervisor* hv, XenStoreService* xs, Simulator* sim,
                     DomainId self, Builder* builder, Obs* obs)
    : hv_(hv),
      xs_(xs),
      sim_(sim),
      self_(self),
      builder_(builder),
      obs_(obs),
      m_slice_count_(obs_->metrics().GetGauge("toolstack.slice.count")),
      m_slice_guests_(obs_->metrics().GetGauge("toolstack.slice.guests")),
      m_slice_mem_(obs_->metrics().GetGauge("toolstack.slice.mem_mb")) {}

bool Toolstack::ShardTagCompatible(DomainId shard,
                                   const std::string& tag) const {
  auto it = shard_tags_.find(shard);
  if (it == shard_tags_.end()) {
    return true;  // shard serves nobody yet
  }
  for (const auto& [existing_tag, count] : it->second) {
    if (count > 0 && existing_tag != tag) {
      return false;
    }
  }
  return true;
}

template <typename BackendT>
StatusOr<BackendT*> Toolstack::PickBackend(
    const std::vector<BackendT*>& candidates, const std::string& tag,
    const char* kind) const {
  for (BackendT* backend : candidates) {
    if (ShardTagCompatible(backend->self(), tag)) {
      return backend;
    }
  }
  // §3.2.1: "In case there is a lack of appropriate shards, VM creation
  // fails rather than forcing the guest VM into an undesired sharing
  // configuration."
  return ResourceExhaustedError(
      StrFormat("no %s shard compatible with constraint group '%s'", kind,
                tag.c_str()));
}

StatusOr<DomainId> Toolstack::CreateGuest(const GuestSpec& spec) {
  if (memory_quota_mb_ != 0 &&
      guest_memory_in_use_mb() + spec.memory_mb > memory_quota_mb_) {
    return ResourceExhaustedError(
        StrFormat("toolstack dom%u memory quota exceeded (%llu MB in use, "
                  "quota %llu MB)",
                  self_.value(),
                  static_cast<unsigned long long>(guest_memory_in_use_mb()),
                  static_cast<unsigned long long>(memory_quota_mb_)));
  }

  // Select compliant shards *before* building, so a constraint failure does
  // not leave a half-created guest behind.
  NetBack* netback = nullptr;
  BlkBack* blkback = nullptr;
  if (spec.with_net) {
    XOAR_ASSIGN_OR_RETURN(netback,
                          PickBackend(netbacks_, spec.constraint_tag, "NetBack"));
  }
  if (spec.with_disk) {
    XOAR_ASSIGN_OR_RETURN(blkback,
                          PickBackend(blkbacks_, spec.constraint_tag, "BlkBack"));
  }

  BuildRequest request;
  request.config.name = spec.name;
  request.config.memory_mb = spec.memory_mb;
  request.config.vcpus = spec.vcpus;
  request.config.os =
      spec.hvm ? OsProfile::kHvmGuest : OsProfile::kGuestLinux;
  request.config.constraint_tag = spec.constraint_tag;
  request.image = spec.hvm ? "guest-hvm" : spec.image;
  request.allow_bootloader = spec.allow_bootloader;
  XOAR_ASSIGN_OR_RETURN(DomainId guest, builder_->BuildVm(self_, request));

  GuestRecord record;
  record.id = guest;
  record.spec = spec;

  // Unwind for any failure past this point: the domain is already built,
  // so a rejected attach/image/emulator step must tear everything back
  // down — a create that fails and leaks a half-built guest breaks the
  // same invariant as a migration abort that leaks its destination shell.
  const std::string image_name = StrFormat("vm-%u-disk0", guest.value());
  bool image_created = false;
  auto unwind = [&](Status cause) -> Status {
    if (record.blkback != nullptr) {
      (void)record.blkback->DetachVbd(guest);
    }
    if (image_created) {
      (void)blkback->DeleteImage(image_name);
    }
    if (record.netback != nullptr) {
      (void)record.netback->DetachVif(guest);
    }
    xs_->Disconnect(guest);
    (void)hv_->DestroyDomain(self_, guest);
    return cause;
  };

  if (spec.with_net) {
    if (authorize_shard_use_) {
      Status s = hv_->AuthorizeShardUse(self_, guest, netback->self());
      if (!s.ok()) return unwind(s);
    }
    if (Status s = netback->AttachVif(guest); !s.ok()) return unwind(s);
    record.netback = netback;
    record.netfront = std::make_unique<NetFront>(hv_, xs_, guest, netback->self());
    if (Status s = record.netfront->Connect(); !s.ok()) return unwind(s);
  }
  if (spec.with_disk) {
    if (authorize_shard_use_) {
      Status s = hv_->AuthorizeShardUse(self_, guest, blkback->self());
      if (!s.ok()) return unwind(s);
    }
    // §5.4: disk images live in BlkBack; the Toolstack proxies requests to
    // the daemon there instead of mounting files itself.
    if (Status s = blkback->CreateImage(image_name, spec.disk_image_mb * kMiB);
        !s.ok()) {
      return unwind(s);
    }
    image_created = true;
    if (Status s = blkback->BindImage(guest, image_name); !s.ok()) {
      return unwind(s);
    }
    record.blkback = blkback;
    record.blkfront = std::make_unique<BlkFront>(hv_, xs_, guest, blkback->self());
    if (Status s = record.blkfront->Connect(); !s.ok()) return unwind(s);
  }
  if (spec.hvm) {
    StatusOr<DomainId> qemu = builder_->BuildEmulatorDomain(self_, guest);
    if (!qemu.ok()) return unwind(qemu.status());
    record.qemu_domain = *qemu;
    record.emulator =
        std::make_unique<DeviceEmulator>(hv_, record.qemu_domain, guest);
  }
  if (spec.with_net) {
    shard_tags_[netback->self()][spec.constraint_tag] += 1;
  }
  if (spec.with_disk) {
    shard_tags_[blkback->self()][spec.constraint_tag] += 1;
  }

  // File the guest under its tenant's slice; all aggregates move
  // incrementally (no O(host) rescan on the create path).
  TenantSlice& slice = slices_[spec.tenant];
  if (slice.guests.empty()) {
    m_slice_count_->Add(1);
  }
  slice.guests.emplace(guest, std::move(record));
  slice.memory_in_use_mb += spec.memory_mb;
  guest_tenant_[guest] = spec.tenant;
  memory_in_use_mb_ += spec.memory_mb;
  ++guest_count_;
  m_slice_guests_->Add(1);
  m_slice_mem_->Add(static_cast<double>(spec.memory_mb));
  XLOG(kDebug) << "[toolstack dom" << self_.value() << "] created guest dom"
               << guest.value();
  return guest;
}

Status Toolstack::DestroyGuest(DomainId guest) {
  auto tenant_it = guest_tenant_.find(guest);
  if (tenant_it == guest_tenant_.end()) {
    return NotFoundError(
        StrFormat("dom%u is not managed by this toolstack", guest.value()));
  }
  TenantSlice& slice = slices_[tenant_it->second];
  auto it = slice.guests.find(guest);
  GuestRecord& record = it->second;
  if (record.netback != nullptr) {
    auto& tags = shard_tags_[record.netback->self()];
    tags[record.spec.constraint_tag] -= 1;
    (void)record.netback->DetachVif(guest);
  }
  if (record.blkback != nullptr) {
    auto& tags = shard_tags_[record.blkback->self()];
    tags[record.spec.constraint_tag] -= 1;
    // Drop the VBD before the image so the delete never sees a live
    // binding; without the delete, create/destroy churn (migration!)
    // fills the disk with orphaned images.
    (void)record.blkback->DetachVbd(guest);
    (void)record.blkback->DeleteImage(
        StrFormat("vm-%u-disk0", guest.value()));
  }
  if (record.qemu_domain.valid()) {
    (void)hv_->DestroyDomain(self_, record.qemu_domain);
  }
  xs_->Disconnect(guest);
  XOAR_RETURN_IF_ERROR(hv_->DestroyDomain(self_, guest));
  const std::uint64_t mem = record.spec.memory_mb;
  slice.guests.erase(it);
  slice.memory_in_use_mb -= mem;
  memory_in_use_mb_ -= mem;
  --guest_count_;
  m_slice_guests_->Add(-1);
  m_slice_mem_->Add(-static_cast<double>(mem));
  if (slice.guests.empty()) {
    slices_.erase(tenant_it->second);
    m_slice_count_->Add(-1);
  }
  guest_tenant_.erase(tenant_it);
  return Status::Ok();
}

Status Toolstack::PauseGuest(DomainId guest) {
  return hv_->PauseDomain(self_, guest);
}

Status Toolstack::UnpauseGuest(DomainId guest) {
  return hv_->UnpauseDomain(self_, guest);
}

Toolstack::GuestRecord* Toolstack::guest(DomainId id) {
  auto tenant_it = guest_tenant_.find(id);
  if (tenant_it == guest_tenant_.end()) {
    return nullptr;
  }
  auto slice_it = slices_.find(tenant_it->second);
  auto it = slice_it->second.guests.find(id);
  return &it->second;
}

std::vector<DomainId> Toolstack::Guests() const {
  std::vector<DomainId> out;
  out.reserve(guest_count_);
  for (const auto& [id, tenant] : guest_tenant_) {
    out.push_back(id);
  }
  return out;
}

const Toolstack::TenantSlice* Toolstack::slice(const std::string& tenant) const {
  auto it = slices_.find(tenant);
  return it == slices_.end() ? nullptr : &it->second;
}

std::vector<std::string> Toolstack::Tenants() const {
  std::vector<std::string> out;
  out.reserve(slices_.size());
  for (const auto& [tenant, slice] : slices_) {
    out.push_back(tenant);
  }
  return out;
}

}  // namespace xoar
