#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

// Every replaceable non-aligned allocation function is replaced, over
// malloc/free, so each new meets its own delete whichever runtime
// (libstdc++ or a sanitizer's) would otherwise supply the rest. The
// aligned forms keep their defaults, which pair with each other.
// Kept out of line in its own file: inlined next to a new-expression,
// the free() below would read to the compiler as a mismatched pair.
namespace {

thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_malloc_or_throw(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc_or_throw(size); }
void* operator new[](std::size_t size) {
  return counted_malloc_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace explora::testfix {

std::size_t thread_allocations() noexcept { return t_allocations; }

}  // namespace explora::testfix
