// Dense row-major matrix of doubles with the handful of operations the
// neural-network layer needs. Deliberately minimal: no expression
// templates, no views — value semantics and clear loops.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned.hpp"

namespace explora::ml {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> data() noexcept { return data_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  void fill(double value) noexcept;

  /// Reshapes to rows x cols, reusing the existing allocation when it is
  /// large enough (scratch-buffer reuse on hot paths). Element values are
  /// unspecified afterwards — callers overwrite every cell.
  void resize(std::size_t rows, std::size_t cols);

  /// A += alpha * outer(u, v) with u.size() == rows, v.size() == cols.
  void add_outer(double alpha, std::span<const double> u,
                 std::span<const double> v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Cache-line aligned: batch rows feed the SIMD GEMM backends.
  common::AlignedVector<double> data_;
};

}  // namespace explora::ml
