#include "ml/matrix.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace explora::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::add_outer(double alpha, std::span<const double> u,
                       std::span<const double> v) {
  EXPLORA_EXPECTS_MSG(u.size() == rows_, "u has {} elements, matrix has {} rows",
                      u.size(), rows_);
  EXPLORA_EXPECTS_MSG(v.size() == cols_, "v has {} elements, matrix has {} cols",
                      v.size(), cols_);
  EXPLORA_AUDIT(contracts::all_finite(u) && contracts::all_finite(v));
  for (std::size_t r = 0; r < rows_; ++r) {
    double* row = data_.data() + r * cols_;
    const double scale = alpha * u[r];
    if (scale == 0.0) continue;  // det-ok: float-eq (exact-zero skip is bit-safe)
    for (std::size_t c = 0; c < cols_; ++c) row[c] += scale * v[c];
  }
}

}  // namespace explora::ml
