// Test-only heap allocation counter. alloc_counter.cpp replaces every
// global operator new/delete of the test binary, aligned forms included,
// with counting versions, so a test can assert how many allocations a
// call makes on its own thread.
#pragma once

#include <cstddef>

namespace explora::testfix {

/// Calls of any global operator new made on this thread so far.
[[nodiscard]] std::size_t thread_allocations() noexcept;

}  // namespace explora::testfix
