// A guest's communication ring with a service domain (§4.4, §5.5): one
// page of the guest's memory that the server maps, plus an event-channel
// pair. XenStore-Logic and the Console Manager each hold one per guest.
// Stock Xen's services foreign-map the page with Dom0 privilege; Xoar's
// map a grant the Builder pre-created, so they run deprivileged (§5.6).
#ifndef XOAR_SRC_XS_GUEST_RING_H_
#define XOAR_SRC_XS_GUEST_RING_H_

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/hv/hypervisor.h"

namespace xoar {

struct GuestRing {
  Pfn pfn;
  GrantRef gref;  // invalid when foreign-mapped
  EvtchnPort guest_port;
  EvtchnPort server_port;

  // Takes the page, the server's mapping of it (a foreign map when
  // `foreign_map`), and the event-channel pair, recording each as its step
  // succeeds. The hypervisor's IVC policy decides admissibility; a refused
  // step releases what the earlier ones took.
  Status Establish(Hypervisor* hv, DomainId server, DomainId guest,
                   bool foreign_map);
  // In reverse: closes the valid ports, unmaps and ends a valid grant,
  // frees the page, and leaves the ring empty.
  void Release(Hypervisor* hv, DomainId server, DomainId guest);
};

}  // namespace xoar

#endif  // XOAR_SRC_XS_GUEST_RING_H_
