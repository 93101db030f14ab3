// NEON backend (aarch64): 4 batch rows x 4 output neurons per tile, packed
// transposed weight panels, separate vmul + vadd (never vfma).
//
// Mirrors gemm_avx2.cpp with 2-wide double vectors: lane l of a panel owns
// output neuron r0+l and runs the scalar kernel's sequential-over-c chain,
// so results are byte-identical to detail::scalar_kernel. Compiled with
// -ffp-contract=off so the compiler cannot fuse the explicit mul/add.
#include "ml/gemm.hpp"

#if defined(EXPLORA_SIMD_NEON)

#include <arm_neon.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <cstddef>

#include "common/aligned.hpp"

namespace explora::ml::gemm::detail {

namespace {

constexpr std::size_t kPanel = 4;      ///< output neurons per packed panel
constexpr std::size_t kBatchTile = 4;  ///< batch rows per microkernel call

std::size_t pack_weights(const double* w, std::size_t out, std::size_t in,
                         common::AlignedVector<double>& packed) {
  const std::size_t panels = (out + kPanel - 1) / kPanel;
  // The thread-local panel scratch reaches steady-state capacity after the
  // first call per layer shape; resize is then a no-op.
  packed.resize(panels * in * kPanel);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t r0 = p * kPanel;
    double* panel = packed.data() + p * in * kPanel;
    for (std::size_t c = 0; c < in; ++c) {
      for (std::size_t l = 0; l < kPanel; ++l) {
        panel[c * kPanel + l] =
            r0 + l < out ? w[(r0 + l) * in + c] : 0.0;
      }
    }
  }
  return panels;
}

template <std::size_t BT>
void micro_tile(const double* panel, std::size_t in, const double* x,
                std::size_t x_stride, double* y, std::size_t y_stride,
                const double* bias, std::size_t r0, std::size_t valid,
                Epilogue epilogue) {
  float64x2_t acc_lo[BT];
  float64x2_t acc_hi[BT];
  for (std::size_t bt = 0; bt < BT; ++bt) {
    acc_lo[bt] = vdupq_n_f64(0.0);
    acc_hi[bt] = vdupq_n_f64(0.0);
  }
  for (std::size_t c = 0; c < in; ++c) {
    const float64x2_t w_lo = vld1q_f64(panel + c * kPanel);
    const float64x2_t w_hi = vld1q_f64(panel + c * kPanel + 2);
    for (std::size_t bt = 0; bt < BT; ++bt) {
      const float64x2_t xv = vdupq_n_f64(x[bt * x_stride + c]);
      acc_lo[bt] = vaddq_f64(acc_lo[bt], vmulq_f64(w_lo, xv));
      acc_hi[bt] = vaddq_f64(acc_hi[bt], vmulq_f64(w_hi, xv));
    }
  }
  alignas(16) double tile[kPanel];
  for (std::size_t bt = 0; bt < BT; ++bt) {
    vst1q_f64(tile, acc_lo[bt]);
    vst1q_f64(tile + 2, acc_hi[bt]);
    apply_epilogue(y + bt * y_stride + r0, tile, bias, r0, valid, epilogue);
  }
}

}  // namespace

void neon_kernel(const double* w, std::size_t out, std::size_t in,
                 const double* x, std::size_t batch, double* y,
                 const double* bias, Epilogue epilogue) {
  thread_local common::AlignedVector<double> t_packed;
  const std::size_t panels = pack_weights(w, out, in, t_packed);

  std::size_t b = 0;
  for (; b + kBatchTile <= batch; b += kBatchTile) {
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t r0 = p * kPanel;
      const std::size_t valid = out - r0 < kPanel ? out - r0 : kPanel;
      micro_tile<kBatchTile>(t_packed.data() + p * in * kPanel, in,
                             x + b * in, in, y + b * out, out, bias, r0,
                             valid, epilogue);
    }
  }
  for (; b < batch; ++b) {
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t r0 = p * kPanel;
      const std::size_t valid = out - r0 < kPanel ? out - r0 : kPanel;
      micro_tile<1>(t_packed.data() + p * in * kPanel, in, x + b * in, in,
                    y + b * out, out, bias, r0, valid, epilogue);
    }
  }
}

}  // namespace explora::ml::gemm::detail

#endif  // EXPLORA_SIMD_NEON
