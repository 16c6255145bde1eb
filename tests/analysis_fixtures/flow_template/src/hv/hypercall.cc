// Fixture: the hypervisor-side issuance leaf. SnapshotDomain is the only
// function that names the privileged op.
#include "src/hv/hypercall.h"

namespace xoar_fixture {

bool Hypervisor::SnapshotDomain(int domain) {
  return Check(Hypercall::kSnapshotOp, domain);
}

bool Hypervisor::Check(Hypercall op, int domain) {
  return static_cast<int>(op) >= 0 && domain >= 0;
}

}  // namespace xoar_fixture
