// Fixture: exactly three determinism violations (steady_clock, rand() and
// pthread_create). The decoys below must NOT trigger: "time(" inside a
// string literal, a member call obj.time(), the identifier time_ms, and a
// variable named thread.
#include <chrono>
#include <cstdlib>

#include <pthread.h>

namespace xoar_fixture {

struct Box {
  long time() { return 0; }
};

void* Body(void*) { return nullptr; }

long Sample() {
  auto now = std::chrono::steady_clock::now();  // violation 1
  int jitter = rand();                          // violation 2
  Box box;
  long time_ms = box.time();
  const char* label = "time(s) elapsed";
  (void)label;
  pthread_t tid;
  pthread_create(&tid, nullptr, Body, nullptr);  // violation 3
  int thread = 0;
  return now.time_since_epoch().count() + jitter + time_ms + thread;
}

}  // namespace xoar_fixture
