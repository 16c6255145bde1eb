#include "src/drv/console.h"

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

ConsoleBackend::ConsoleBackend(Hypervisor* hv, Simulator* sim, DomainId self,
                               SerialDevice* serial)
    : hv_(hv), sim_(sim), self_(self), serial_(serial) {}

Status ConsoleBackend::Initialize() {
  if (initialized_) {
    return AlreadyExistsError("console backend already initialized");
  }
  // §5.8: the hypervisor must deliver console signals to the correct domain;
  // BindVirq checks the kSerialConsole capability.
  XOAR_ASSIGN_OR_RETURN(virq_port_, hv_->BindVirq(self_, Virq::kConsole));
  serial_->set_input_notifier(
      [this] { (void)hv_->RaiseVirq(self_, Virq::kConsole); });
  initialized_ = true;
  return Status::Ok();
}

Status ConsoleBackend::ConnectGuest(DomainId guest, bool use_foreign_map) {
  if (!initialized_) {
    return FailedPreconditionError("console backend not initialized");
  }
  if (guests_.count(guest) > 0) {
    return AlreadyExistsError(
        StrFormat("dom%u already has a console", guest.value()));
  }
  GuestConsole console;
  XOAR_RETURN_IF_ERROR(
      console.ring.Establish(hv_, self_, guest, use_foreign_map));
  guests_.emplace(guest, std::move(console));
  return Status::Ok();
}

bool ConsoleBackend::IsConnected(DomainId guest) const {
  return guests_.count(guest) > 0;
}

void ConsoleBackend::Disconnect(DomainId guest) {
  auto it = guests_.find(guest);
  if (it == guests_.end()) {
    return;
  }
  it->second.ring.Release(hv_, self_, guest);
  guests_.erase(it);
}

Status ConsoleBackend::WriteFromGuest(DomainId guest, std::string_view text) {
  auto it = guests_.find(guest);
  if (it == guests_.end()) {
    return FailedPreconditionError(
        StrFormat("dom%u has no virtual console", guest.value()));
  }
  it->second.transcript.append(text);
  return Status::Ok();
}

StatusOr<std::string> ConsoleBackend::Transcript(DomainId guest) const {
  auto it = guests_.find(guest);
  if (it == guests_.end()) {
    return NotFoundError(
        StrFormat("dom%u has no virtual console", guest.value()));
  }
  return it->second.transcript;
}

void ConsoleBackend::WritePhysical(std::string_view text) {
  serial_->Write(text);
}

std::string ConsoleBackend::DrainPhysicalInput() {
  return serial_->DrainInput();
}

}  // namespace xoar
