// Fixture: src/sim/ is exempt from the clock and randomness bans, so this
// use of a wall clock must NOT produce a finding. The thread ban has no
// exemption: the std::thread below is this file's one finding.
#include <chrono>
#include <thread>

namespace xoar_fixture {

long WallNanos() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

void RunAside() {
  std::thread worker([] {});  // violation: a second thread
  worker.join();
}

}  // namespace xoar_fixture
