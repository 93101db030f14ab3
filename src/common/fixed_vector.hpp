// A vector with inline, fixed-capacity storage: push_back, indexing,
// iteration and std::span conversion like std::vector, but the elements
// live inside the object, so a FixedVector of a trivially copyable T is
// itself trivially copyable and never allocates. Exceeding the capacity is
// a contract violation, not a reallocation.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>

#include "common/contracts.hpp"

namespace explora::common {

template <typename T, std::size_t N>
class FixedVector {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr FixedVector() noexcept = default;
  /// Enables `list = {a, b}`; at most N values.
  FixedVector(std::initializer_list<T> values) {
    EXPLORA_EXPECTS_MSG(values.size() <= N,
                        "{} values exceed the inline capacity of {}",
                        values.size(), N);
    std::copy(values.begin(), values.end(), items_.begin());
    size_ = values.size();
  }

  void push_back(const T& value) {
    EXPLORA_EXPECTS_MSG(size_ < N, "push_back past the inline capacity of {}",
                        N);
    items_[size_++] = value;
  }
  /// Grows with value-initialized elements or shrinks; `count` <= N.
  void resize(std::size_t count) {
    EXPLORA_EXPECTS_MSG(count <= N,
                        "size {} exceeds the inline capacity of {}", count, N);
    for (std::size_t i = size_; i < count; ++i) items_[i] = T{};
    size_ = count;
  }

  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* data() noexcept { return items_.data(); }
  [[nodiscard]] const T* data() const noexcept { return items_.data(); }
  [[nodiscard]] iterator begin() noexcept { return items_.data(); }
  [[nodiscard]] iterator end() noexcept { return items_.data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return items_.data(); }
  [[nodiscard]] const_iterator end() const noexcept {
    return items_.data() + size_;
  }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    EXPLORA_ASSERT(i < size_);
    return items_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    EXPLORA_ASSERT(i < size_);
    return items_[i];
  }

  /// Compares the live elements only; slots past size() do not count.
  friend bool operator==(const FixedVector& a, const FixedVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

}  // namespace explora::common
