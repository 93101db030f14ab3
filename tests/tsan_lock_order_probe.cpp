// Lock-order guard proof: ThreadSanitizer must flag an A->B / B->A
// acquisition pair on common::Mutex even though the two critical sections
// never overlap in time (the first thread finishes before the second
// starts, so the probe itself never deadlocks). Built only under
// EXPLORA_SANITIZE=thread; ctest passes it when TSan's report contains
// "lock-order-inversion" (DESIGN.md §9).
#include <cstdio>
#include <thread>

#include "common/thread_annotations.hpp"

int main() {
  explora::common::Mutex a;
  explora::common::Mutex b;

  std::thread forward([&] {
    explora::common::MutexLock hold_a(a);
    explora::common::MutexLock hold_b(b);
  });
  forward.join();

  std::thread backward([&] {
    explora::common::MutexLock hold_b(b);
    explora::common::MutexLock hold_a(a);
  });
  backward.join();

  std::puts("probe finished without a TSan report");
  return 0;
}
