// Virtual console service (§5.5).
//
// Xen keeps the physical serial port; the holder of the kSerialConsole
// capability (Dom0 in stock Xen, the Console Manager in Xoar) receives the
// console VIRQ plus I/O-port access and runs the user-space console daemon
// (xenconsoled) that exposes a virtual console to every other VM over a
// shared ring. Per Table 5.1 the Console Manager is *unprivileged*: in Xoar
// it maps guest rings through Builder-created grant entries rather than
// Dom0-style foreign mapping (§5.6).
#ifndef XOAR_SRC_DRV_CONSOLE_H_
#define XOAR_SRC_DRV_CONSOLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/dev/serial.h"
#include "src/hv/hypervisor.h"
#include "src/sim/simulator.h"

namespace xoar {

class ConsoleBackend {
 public:
  ConsoleBackend(Hypervisor* hv, Simulator* sim, DomainId self,
                 SerialDevice* serial);

  // Claims the console VIRQ (requires the kSerialConsole capability) and
  // arms the serial input path.
  Status Initialize();

  DomainId self() const { return self_; }
  bool initialized() const { return initialized_; }

  // Sets up a guest's virtual console ring. In stock mode the daemon
  // foreign-maps the guest page (Dom0 privilege); in Xoar mode it maps a
  // grant the Builder pre-created.
  Status ConnectGuest(DomainId guest, bool use_foreign_map);
  bool IsConnected(DomainId guest) const;
  void Disconnect(DomainId guest);

  // Guest console output: appended to that guest's transcript.
  Status WriteFromGuest(DomainId guest, std::string_view text);
  StatusOr<std::string> Transcript(DomainId guest) const;

  // Output from the console owner itself goes to the physical serial port.
  void WritePhysical(std::string_view text);

  // Characters received from the physical console since the last drain.
  std::string DrainPhysicalInput();

 private:
  struct GuestConsole {
    Pfn ring_pfn;
    GrantRef ring_gref;  // invalid when foreign-mapped
    EvtchnPort guest_port;
    EvtchnPort server_port;
    std::string transcript;
  };

  Hypervisor* hv_;
  Simulator* sim_;
  DomainId self_;
  SerialDevice* serial_;
  bool initialized_ = false;
  EvtchnPort virq_port_;
  std::map<DomainId, GuestConsole> guests_;
};

}  // namespace xoar

#endif  // XOAR_SRC_DRV_CONSOLE_H_
