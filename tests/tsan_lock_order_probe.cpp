// Lock-order guard proof: ThreadSanitizer must flag an A->B / B->A
// acquisition pair on std::mutex even though the two critical sections
// never overlap in time (the first thread finishes before the second
// starts, so the probe itself never deadlocks). Built only under
// EXPLORA_SANITIZE=thread; ctest passes it when TSan's report contains
// "lock-order-inversion" (DESIGN.md §9).
#include <cstdio>
#include <mutex>
#include <thread>

int main() {
  std::mutex a;
  std::mutex b;

  std::thread forward([&] {
    const std::lock_guard<std::mutex> hold_a(a);
    const std::lock_guard<std::mutex> hold_b(b);
  });
  forward.join();

  std::thread backward([&] {
    const std::lock_guard<std::mutex> hold_b(b);
    const std::lock_guard<std::mutex> hold_a(a);
  });
  backward.join();

  std::puts("probe finished without a TSan report");
  return 0;
}
