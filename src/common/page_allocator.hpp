// Page-mapped storage for large buffers that are made and dropped once
// per call, such as a replayed trace's copy of its bytes and its frame
// index (oran/trace). glibc raises its mmap threshold to the size of
// each mapped block it frees (up to 32 MiB), so from the second such
// buffer on malloc serves it from the brk heap. Whatever the process
// allocates between two calls then settles in the freed block, the next
// buffer no longer fits, and the heap grows by its size: how much memory
// the process keeps depends on the order of unrelated allocations.
//
// Fresh pages cost a fault and a zero fill each, which for a buffer of
// megabytes costs more than filling it, so each thread keeps the last
// mapping it freed of each element type and hands it out again to an
// allocation of the same size. A call repeated on same-sized input thus
// reuses warm pages, and what the process holds depends only on the
// sequence of these allocations.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>
#include <utility>

namespace explora::common {

/// Stateless C++17 allocator mapping pages per allocation (mmap) instead
/// of taking them from malloc. Each thread keeps one freed mapping of at
/// most kMaxSpareBytes per element type for reuse by an allocation of the
/// same byte count; other frees unmap at once. A zero-byte allocation
/// maps nothing and returns nullptr. A fresh allocation costs a system
/// call and at least one page: use it only for buffers of many pages.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  /// Largest freed mapping a thread keeps for reuse.
  static constexpr std::size_t kMaxSpareBytes = std::size_t{64} << 20;

  PageAllocator() noexcept = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    const std::size_t bytes = n * sizeof(T);
    if (bytes == 0) return nullptr;
    if (spare_.pages != nullptr && spare_.bytes == bytes) {
      return static_cast<T*>(std::exchange(spare_.pages, nullptr));
    }
    void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(pages);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (p == nullptr) return;
    if (bytes > kMaxSpareBytes) {
      ::munmap(p, bytes);
      return;
    }
    spare_.release();
    spare_.pages = p;
    spare_.bytes = bytes;
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }

 private:
  /// One freed mapping, unmapped when replaced or when its thread exits.
  struct Spare {
    void* pages = nullptr;
    std::size_t bytes = 0;

    Spare() = default;
    Spare(const Spare&) = delete;
    Spare& operator=(const Spare&) = delete;
    ~Spare() { release(); }

    void release() noexcept {
      if (pages != nullptr) ::munmap(pages, bytes);
      pages = nullptr;
    }
  };

  static inline thread_local Spare spare_;
};

/// unique_ptr deleter for `size` elements from PageAllocator<T>.
template <typename T>
struct PageDeleter {
  std::size_t size = 0;
  void operator()(T* p) const noexcept {
    PageAllocator<T>{}.deallocate(p, size);
  }
};

}  // namespace explora::common
