#include "src/ctl/toolstack.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {
namespace {

// The guest's disk image in its BlkBack shard.
std::string ImageName(DomainId guest) {
  return StrFormat("vm-%u-disk0", guest.value());
}

}  // namespace

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

  // Unwind for any failure past this point: the domain is already built,
  // so a rejected attach/image/emulator step must tear everything back
  // down — a create that fails and leaks a half-built guest breaks the
  // same invariant as a migration abort that leaks its destination shell.
  // The record holds exactly what has been set up so far.
  GuestRecord record;
  record.spec = spec;
  auto unwind = [&](Status cause) -> Status {
    (void)Teardown(guest, record);
    return cause;
  };

  if (spec.with_net) {
    if (authorize_shard_use_) {
      Status s = hv_->AuthorizeShardUse(self_, guest, netback->self());
      if (!s.ok()) return unwind(s);
    }
    if (Status s = netback->AttachVif(guest); !s.ok()) return unwind(s);
    record.netback = netback;
    shard_tags_[netback->self()][spec.constraint_tag] += 1;
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
    if (Status s = blkback->CreateImage(ImageName(guest),
                                        spec.disk_image_mb * kMiB);
        !s.ok()) {
      return unwind(s);
    }
    record.blkback = blkback;
    shard_tags_[blkback->self()][spec.constraint_tag] += 1;
    if (Status s = blkback->BindImage(guest, ImageName(guest)); !s.ok()) {
      return unwind(s);
    }
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

  // Every aggregate moves incrementally (no O(host) rescan on the create
  // path).
  if (tenant_guests_[spec.tenant]++ == 0) {
    m_slice_count_->Add(1);
  }
  guests_.emplace(guest, std::move(record));
  memory_in_use_mb_ += spec.memory_mb;
  m_slice_guests_->Add(1);
  m_slice_mem_->Add(static_cast<double>(spec.memory_mb));
  XLOG(kDebug) << "[toolstack dom" << self_.value() << "] created guest dom"
               << guest.value();
  return guest;
}

Status Toolstack::Teardown(DomainId guest, const GuestRecord& record) {
  // The guest's console and XenStore connections go first, while it is
  // alive; without its watches, removing its directories fires nothing for
  // it.
  builder_->Disconnect(guest);
  if (record.netback != nullptr) {
    shard_tags_[record.netback->self()][record.spec.constraint_tag] -= 1;
    (void)record.netback->DetachVif(guest);
  }
  if (record.blkback != nullptr) {
    shard_tags_[record.blkback->self()][record.spec.constraint_tag] -= 1;
    // Drop the VBD before the image so the delete never sees a live
    // binding; without the delete, create/destroy churn (migration!)
    // fills the disk with orphaned images.
    (void)record.blkback->DetachVbd(guest);
    (void)record.blkback->DeleteImage(ImageName(guest));
  }
  if (record.qemu_domain.valid()) {
    builder_->Disconnect(record.qemu_domain);
    (void)DestroyDomain(record.qemu_domain);
  }
  return DestroyDomain(guest);
}

Status Toolstack::DestroyDomain(DomainId dom) {
  XOAR_RETURN_IF_ERROR(hv_->DestroyDomain(self_, dom));
  xs_->RetryWhileUnavailable(
      [xs = xs_, self = self_, dir = DomainDir(dom)] {
        return xs->Remove(self, dir);
      });
  return Status::Ok();
}

Status Toolstack::DestroyGuest(DomainId guest) {
  auto it = guests_.find(guest);
  if (it == guests_.end()) {
    return NotFoundError(
        StrFormat("dom%u is not managed by this toolstack", guest.value()));
  }
  XOAR_RETURN_IF_ERROR(Teardown(guest, it->second));
  const GuestSpec& spec = it->second.spec;
  memory_in_use_mb_ -= spec.memory_mb;
  m_slice_guests_->Add(-1);
  m_slice_mem_->Add(-static_cast<double>(spec.memory_mb));
  auto tenant = tenant_guests_.find(spec.tenant);
  if (--tenant->second == 0) {
    tenant_guests_.erase(tenant);
    m_slice_count_->Add(-1);
  }
  guests_.erase(it);
  return Status::Ok();
}

Status Toolstack::PauseGuest(DomainId guest) {
  return hv_->PauseDomain(self_, guest);
}

Status Toolstack::UnpauseGuest(DomainId guest) {
  return hv_->UnpauseDomain(self_, guest);
}

GuestRecord* Toolstack::guest(DomainId id) {
  auto it = guests_.find(id);
  return it == guests_.end() ? nullptr : &it->second;
}

}  // namespace xoar
