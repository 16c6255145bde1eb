#include "src/ctl/builder.h"

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/drv/xenbus.h"

namespace xoar {

Builder::Builder(Hypervisor* hv, XenStoreService* xs, DomainId self)
    : hv_(hv), xs_(xs), self_(self) {
  // Baseline library shipped with the platform.
  known_images_.insert("guest-linux");
  known_images_.insert("guest-hvm");
  known_images_.insert(kPvBootloaderImage);
  known_images_.insert("shard-linux");
  known_images_.insert("shard-minios");
  known_images_.insert("shard-nanos");
}

StatusOr<DomainId> Builder::BuildVm(DomainId toolstack,
                                    const BuildRequest& request) {
  // §5.2: the privileged Builder never parses user-provided kernels or file
  // systems. Unknown images either fail or fall back to the bootloader
  // image, which loads the user's kernel from inside the (unprivileged)
  // guest itself.
  std::string image = request.image;
  if (!HasImage(image)) {
    if (!request.allow_bootloader) {
      return InvalidArgumentError(
          StrFormat("image %s is not in the known-good library and the "
                    "bootloader fallback was not requested",
                    image.c_str()));
    }
    image = kPvBootloaderImage;
  }

  XOAR_ASSIGN_OR_RETURN(
      DomainId guest,
      hv_->CreateDomain(self_, request.config, /*on_behalf_of=*/toolstack));
  bool registered = false;
  const Status built = Populate(toolstack, guest, request, image, &registered);
  if (!built.ok()) {
    // Undo the build, so a refused one leaks neither the domain and its
    // memory nor its connections and XenStore directory.
    Disconnect(guest);
    (void)hv_->DestroyDomain(self_, guest);
    if (registered) {
      xs_->RetryWhileUnavailable(
          [xs = xs_, self = self_, dir = DomainDir(guest)] {
            return xs->Remove(self, dir);
          });
    }
    return built;
  }

  ++builds_;
  if (audit_ != nullptr) {
    AuditEvent event;
    event.time = hv_->sim()->Now();
    event.kind = AuditEventKind::kVmBuilt;
    event.subject = guest;
    event.object = self_;
    event.detail = StrFormat("image=%s name=%s toolstack=%u", image.c_str(),
                             request.config.name.c_str(), toolstack.value());
    audit_->Record(std::move(event));
  }
  XLOG(kDebug) << "[builder] built dom" << guest.value() << " ("
               << request.config.name << ") for toolstack dom"
               << toolstack.value();
  return guest;
}

Status Builder::Populate(DomainId toolstack, DomainId guest,
                         const BuildRequest& request, const std::string& image,
                         bool* registered) {
  // Guest page tables / start-info setup: the heightened-privilege part of
  // building (kForeignMemoryMap class). Touch the guest's first page the
  // way the real builder writes the start-info frame.
  Domain* dom = hv_->domain(guest);
  StatusOr<MappedPage> start_info =
      hv_->ForeignMap(self_, guest, dom->first_pfn());
  if (!start_info.ok()) {
    return start_info.status();
  }
  start_info->data[0] = std::byte{0x58};  // 'X': start_info magic

  // Register the guest in XenStore: /local/domain/<id> owned by the guest
  // with read/write for its parent toolstack.
  const std::string dom_dir = DomainDir(guest);
  XOAR_RETURN_IF_ERROR(xs_->Mkdir(self_, dom_dir));
  *registered = true;
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, dom_dir + "/name",
                                  request.config.name));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, dom_dir + "/image", image));
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, dom_dir + "/memory",
                 StrFormat("%llu", static_cast<unsigned long long>(
                                       request.config.memory_mb))));
  for (const std::string leaf : {"", "/name", "/image", "/memory"}) {
    XsNodePerms perms;
    perms.owner = guest;
    perms.acl[toolstack] = XsPerm::kReadWrite;
    XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, dom_dir + leaf, perms));
  }

  XOAR_RETURN_IF_ERROR(hv_->FinishBuild(self_, guest));
  XOAR_RETURN_IF_ERROR(hv_->UnpauseDomain(self_, guest));

  // §5.6: the Builder adds a step to the VM creation code creating grant
  // table entries for the XenStore and console rings, letting those
  // services function without Dom0-class privileges. The services' Connect
  // calls perform the grant/map handshake; they need the guest running.
  if (request.connect_xenstore) {
    if (hv_->options().enforce_shard_sharing_policy) {
      // The guest must be authorized for the XenStore shard before the
      // grant/event-channel setup passes the IVC policy.
      XOAR_RETURN_IF_ERROR(
          hv_->AuthorizeShardUse(self_, guest, xs_->logic_domain()));
    }
    XOAR_RETURN_IF_ERROR(xs_->Connect(guest));
  }
  if (request.connect_console && console_ != nullptr) {
    if (hv_->options().enforce_shard_sharing_policy) {
      XOAR_RETURN_IF_ERROR(
          hv_->AuthorizeShardUse(self_, guest, console_->self()));
    }
    XOAR_RETURN_IF_ERROR(
        console_->ConnectGuest(guest, console_foreign_map_));
  }
  if (request.start_paused) {
    XOAR_RETURN_IF_ERROR(hv_->PauseDomain(self_, guest));
  }
  return Status::Ok();
}

void Builder::Disconnect(DomainId guest) {
  if (console_ != nullptr) {
    console_->Disconnect(guest);
  }
  xs_->Disconnect(guest);
}

StatusOr<DomainId> Builder::BuildEmulatorDomain(DomainId toolstack,
                                                DomainId guest) {
  const Domain* guest_dom = hv_->domain(guest);
  if (guest_dom == nullptr || !guest_dom->alive()) {
    return NotFoundError("guest to emulate does not exist");
  }
  BuildRequest request;
  request.config.name = StrFormat("qemu-%u", guest.value());
  request.config.memory_mb = 32;
  request.config.vcpus = 1;
  request.config.os = OsProfile::kMiniOs;
  request.config.is_shard = true;
  request.image = "shard-minios";
  request.connect_console = false;
  XOAR_ASSIGN_OR_RETURN(DomainId qemu, BuildVm(toolstack, request));
  // §5.6: "a flag allowing a VM to be specified as privileged for another
  // VM" — the QemuVM may map its guest's memory for DMA, and nothing else.
  XOAR_RETURN_IF_ERROR(hv_->SetPrivilegedFor(self_, qemu, guest));
  return qemu;
}

}  // namespace xoar
