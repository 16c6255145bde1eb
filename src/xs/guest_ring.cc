#include "src/xs/guest_ring.h"

namespace xoar {

Status GuestRing::Establish(Hypervisor* hv, DomainId server, DomainId guest,
                            bool foreign_map) {
  Status status = [&]() -> Status {
    XOAR_ASSIGN_OR_RETURN(pfn, hv->memory().AllocatePages(guest, 1));
    if (foreign_map) {
      XOAR_ASSIGN_OR_RETURN(
          MappedPage page,
          // xoar-flow: allow(privilege_flow): stock-Dom0 baseline branch only — the deployed Xoar services map the Builder-created grant below (§4.4, §5.6)
          hv->ForeignMap(server, guest, pfn));
      (void)page;
    } else {
      XOAR_ASSIGN_OR_RETURN(
          gref, hv->GrantAccess(guest, server, pfn, /*writable=*/true));
      XOAR_ASSIGN_OR_RETURN(MappedPage page,
                            hv->MapGrant(server, guest, gref));
      (void)page;
    }
    XOAR_ASSIGN_OR_RETURN(guest_port, hv->EvtchnAllocUnbound(guest, server));
    XOAR_ASSIGN_OR_RETURN(
        server_port, hv->EvtchnBindInterdomain(server, guest, guest_port));
    return Status::Ok();
  }();
  if (!status.ok()) {
    Release(hv, server, guest);
  }
  return status;
}

void GuestRing::Release(Hypervisor* hv, DomainId server, DomainId guest) {
  if (server_port.valid()) {
    (void)hv->EvtchnClose(server, server_port);
  }
  if (guest_port.valid()) {
    (void)hv->EvtchnClose(guest, guest_port);
  }
  bool page_released = true;
  if (gref.valid()) {
    (void)hv->UnmapGrant(server, guest, gref);
    // A grant still mapped (the server crashed and could not unmap) keeps
    // naming the page, so the page stays until the guest is destroyed.
    page_released = hv->EndGrantAccess(guest, gref).ok();
  }
  if (page_released && pfn.valid()) {
    (void)hv->memory().FreeSpecificPages(guest, pfn, 1);
  }
  *this = GuestRing{};
}

}  // namespace xoar
