// Fixture: miniature hypercall surface + hypervisor for the
// interprocedural privilege rule. Only kEventChannelOp is unprivileged.
#ifndef XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_TEMPLATE_SRC_HV_HYPERCALL_H_
#define XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_TEMPLATE_SRC_HV_HYPERCALL_H_

namespace xoar_fixture {

enum class Hypercall {
  kEventChannelOp,
  kSnapshotOp,
  kCount,
};

constexpr bool IsUnprivilegedHypercall(Hypercall op) {
  switch (op) {
    case Hypercall::kEventChannelOp:
      return true;
    default:
      return false;
  }
}

class Hypervisor {
 public:
  bool SnapshotDomain(int domain);
  bool Check(Hypercall op, int domain);
};

}  // namespace xoar_fixture

#endif  // XOAR_TESTS_ANALYSIS_FIXTURES_FLOW_TEMPLATE_SRC_HV_HYPERCALL_H_
