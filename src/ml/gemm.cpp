// Scalar reference kernels (GEMM, exp, chosen softmax), the panel packing
// and the dispatch to the backend detmath selects. Like every TU, this one
// is compiled with
// -ffp-contract=off (root CMakeLists.txt) so the compiler can never fuse
// the mul+add below into an FMA — the scalar reduction order is the
// byte-identity contract every backend honors.
#include "ml/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/detmath.hpp"

namespace explora::ml::gemm {

void pack(const double* w, std::size_t out, std::size_t in,
          double* panels) noexcept {
  for (std::size_t r0 = 0; r0 < out; r0 += kPanelWidth) {
    double* panel = panels + r0 * in;
    for (std::size_t c = 0; c < in; ++c) {
      for (std::size_t l = 0; l < kPanelWidth; ++l) {
        panel[c * kPanelWidth + l] = r0 + l < out ? w[(r0 + l) * in + c] : 0.0;
      }
    }
  }
}

namespace detail {

void scalar_kernel(PanelWeights w, const double* x, std::size_t batch,
                   double* y, const double* bias, Epilogue epilogue) {
  constexpr std::size_t kWidth = kPanelWidth;
  const std::size_t in = w.in;
  for (std::size_t b = 0; b < batch; ++b) {
    const double* row_in = x + b * in;
    double* row_out = y + b * w.out;
    for (std::size_t r0 = 0; r0 < w.out; r0 += kWidth) {
      // Lane l is neuron r0 + l, summed over c in ascending order.
      const double* panel = w.panels + r0 * in;
      double acc[kWidth] = {};
      for (std::size_t c = 0; c < in; ++c) {
        for (std::size_t l = 0; l < kWidth; ++l) {
          acc[l] += panel[c * kWidth + l] * row_in[c];
        }
      }
      const std::size_t valid = std::min(kWidth, w.out - r0);
      apply_epilogue(row_out + r0, acc, bias, r0, valid, epilogue);
    }
  }
}

void apply_epilogue(double* dst, const double* acc, const double* bias,
                    std::size_t r0, std::size_t valid,
                    Epilogue epilogue) noexcept {
  switch (epilogue) {
    case Epilogue::kNone:
      std::memcpy(dst, acc, valid * sizeof(double));
      return;
    case Epilogue::kBias:
      for (std::size_t l = 0; l < valid; ++l) dst[l] = acc[l] + bias[r0 + l];
      return;
    case Epilogue::kBiasRelu:
      for (std::size_t l = 0; l < valid; ++l) {
        const double v = acc[l] + bias[r0 + l];
        dst[l] = v > 0.0 ? v : 0.0;
      }
      return;
    case Epilogue::kBiasTanh:
      for (std::size_t l = 0; l < valid; ++l) {
        dst[l] = detmath::tanh(acc[l] + bias[r0 + l]);
      }
      return;
  }
}

void scalar_exp_array(const double* x, double* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) y[i] = detmath::exp(x[i]);
}

void scalar_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept {
  constexpr std::size_t kLanes = kSoftmaxLanes;
  for (std::size_t l = 0; l < kLanes; ++l) {
    // std::max_element's scan: the first of equal maxima wins.
    double peak = block[l];
    for (std::size_t j = 1; j < width; ++j) {
      if (peak < block[j * kLanes + l]) peak = block[j * kLanes + l];
    }
    double sum = 0.0;
    double picked = 0.0;
    for (std::size_t j = 0; j < width; ++j) {
      const double e = detmath::exp(block[j * kLanes + l] - peak);
      sum += e;
      if (j == chosen) picked = e;
    }
    probs[l] = picked / sum;
  }
}

}  // namespace detail

void run(PanelWeights w, const double* x, std::size_t batch, double* y,
         const double* bias, Epilogue epilogue) {
  EXPLORA_EXPECTS(bias != nullptr || epilogue == Epilogue::kNone);
  if (batch == 0 || w.out == 0) return;
  EXPLORA_EXPECTS(reinterpret_cast<std::uintptr_t>(w.panels) %
                      common::kKernelAlignment ==
                  0);
  switch (active_backend()) {
#if defined(EXPLORA_SIMD_AVX2)
    case Backend::kAvx2:
      detail::avx2_kernel(w, x, batch, y, bias, epilogue);
      return;
#endif
#if defined(EXPLORA_SIMD_AVX512)
    case Backend::kAvx512:
      detail::avx512_kernel(w, x, batch, y, bias, epilogue);
      return;
#endif
    default:
      detail::scalar_kernel(w, x, batch, y, bias, epilogue);
      return;
  }
}

void exp_array(const double* x, double* y, std::size_t n) {
  switch (active_backend()) {
#if defined(EXPLORA_SIMD_AVX2)
    case Backend::kAvx2:
      detail::avx2_exp_array(x, y, n);
      return;
#endif
#if defined(EXPLORA_SIMD_AVX512)
    case Backend::kAvx512:
      detail::avx512_exp_array(x, y, n);
      return;
#endif
    default:
      detail::scalar_exp_array(x, y, n);
      return;
  }
}

void softmax_chosen_lanes(const double* block, std::size_t width,
                          std::size_t chosen, double* probs) {
  EXPLORA_EXPECTS(chosen < width);
  switch (active_backend()) {
#if defined(EXPLORA_SIMD_AVX2)
    case Backend::kAvx2:
      detail::avx2_softmax_chosen_lanes(block, width, chosen, probs);
      return;
#endif
#if defined(EXPLORA_SIMD_AVX512)
    case Backend::kAvx512:
      detail::avx512_softmax_chosen_lanes(block, width, chosen, probs);
      return;
#endif
    default:
      detail::scalar_softmax_chosen_lanes(block, width, chosen, probs);
      return;
  }
}

}  // namespace explora::ml::gemm
