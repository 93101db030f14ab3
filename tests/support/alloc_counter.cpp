#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

// Every replaceable allocation function is replaced, the non-aligned
// forms over malloc/free and the aligned ones (common::AlignedVector,
// ml::Matrix, the GEMM packing scratch) over aligned_alloc/free, so each
// new meets its own delete whichever runtime (libstdc++ or a sanitizer's)
// would otherwise supply the rest.
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

// aligned_alloc wants a size that is a multiple of the alignment.
void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  ++t_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  if (rounded < size) return nullptr;
  return std::aligned_alloc(a, rounded);
}

void* counted_aligned_or_throw(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
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
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_or_throw(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_or_throw(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
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
void operator delete(void* p, std::align_val_t /*align*/) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t /*align*/) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t /*size*/,
                     std::align_val_t /*align*/) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t /*size*/,
                       std::align_val_t /*align*/) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t /*align*/,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t /*align*/,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace explora::testfix {

std::size_t thread_allocations() noexcept { return t_allocations; }

}  // namespace explora::testfix
