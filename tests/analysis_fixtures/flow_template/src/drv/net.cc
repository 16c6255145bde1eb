// Fixture: a privilege leak hidden behind a class template. Ring<R>::Drain
// is defined out of line, so the call graph only sees it as a member of
// Ring if it reads the `Ring<R>::` qualifier; otherwise NetBack::Flush's
// call to Ring<int>::Drain resolves to nothing and the leak goes unseen.
// xoar_flow must fail with the witness path NetBack::Flush -> Ring::Drain
// -> Hypervisor::SnapshotDomain.
#include "src/hv/hypercall.h"

namespace xoar_fixture {

template <typename R>
class Ring {
 public:
  static bool Drain(Hypervisor* hv, int domain);
};

template <typename R>
bool Ring<R>::Drain(Hypervisor* hv, int domain) {
  return hv->SnapshotDomain(domain);
}

class NetBack {
 public:
  bool Flush(Hypervisor* hv, int domain) {
    return Ring<int>::Drain(hv, domain);
  }
};

}  // namespace xoar_fixture
