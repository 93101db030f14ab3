// AVX2 backend: 4 batch rows x 8 output neurons per tile, packed
// transposed weight panels, separate mul + add (never FMA).
//
// Determinism: vector lane l of a panel owns output neuron r0+l and
// accumulates w[r0+l][c] * x[b][c] for c = 0,1,2,... — the same serial
// dependency chain the scalar kernel runs, just eight neurons at a time.
// No horizontal reduction ever happens, so every output double is
// byte-identical to detail::scalar_kernel. The TU is compiled with
// -mavx2 -mfma -ffp-contract=off (src/ml/CMakeLists.txt) so the compiler
// cannot re-fuse the explicit mul/add pairs.
//
// The tanh epilogue is tanh4(): a lane-wise copy of ml::fdlibm_tanh's
// operation sequence (ml/tanh.cpp). Its fused sites are the only FMA
// instructions here, which is why this backend also requires the CPU's
// FMA flag (ml/gemm.cpp).
#include "ml/gemm.hpp"

#if defined(EXPLORA_SIMD_AVX2)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <cstddef>

#include "common/aligned.hpp"
#include "common/analysis_annotations.hpp"
#include "ml/tanh.hpp"

namespace explora::ml::gemm::detail {

namespace {

using namespace tanh_constants;

constexpr std::size_t kPanel = 8;  ///< output neurons per packed panel
constexpr std::size_t kBatchTile = 4;  ///< batch rows per microkernel call

/// Packs w (out x in, row-major) into transposed panels: panel p holds
/// neurons [p*8, p*8+8); within a panel the 8 weights of input c are
/// contiguous at offset c*8. Lanes past `out` are zero (their results are
/// discarded). Thread-local so concurrent pool workers never share it.
std::size_t pack_weights(const double* w, std::size_t out, std::size_t in,
                         common::AlignedVector<double>& packed) {
  const std::size_t panels = (out + kPanel - 1) / kPanel;
  // hotpath-ok: thread-local panel scratch reaches steady-state capacity
  // after the first call per layer shape; resize is then a no-op.
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

[[nodiscard]] __m256d set1(double v) { return _mm256_set1_pd(v); }

/// Per-lane select: `if_set` where `mask` lanes are all-ones, else
/// `if_clear`.
[[nodiscard]] __m256d select(__m256d mask, __m256d if_clear,
                             __m256d if_set) {
  return _mm256_blendv_pd(if_clear, if_set, mask);
}

[[nodiscard]] __m256d less_than(__m256d a, double bound) {
  return _mm256_cmp_pd(a, set1(bound), _CMP_LT_OQ);
}

/// fdlibm_tanh on 4 lanes — the AVX2 twin of gemm_avx512.cpp's tanh8, op
/// for op. Lanes outside kTanhVectorMin <= |v| < kTanhVectorMax come back
/// as bits of `scalar_lanes` for the caller to recompute with the scalar
/// port.
[[nodiscard]] __m256d tanh4(__m256d v, int& scalar_lanes) {
  const __m256d sign_bit = set1(-0.0);
  const __m256d abs_v = _mm256_andnot_pd(sign_bit, v);
  scalar_lanes = ~_mm256_movemask_pd(_mm256_and_pd(
                     _mm256_cmp_pd(abs_v, set1(kTanhVectorMin), _CMP_GE_OQ),
                     less_than(abs_v, kTanhVectorMax))) &
                 0xf;

  // expm1(a) with a = 2|v| (|v| >= 1) or -2|v|.
  const __m256d big = _mm256_cmp_pd(abs_v, set1(1.0), _CMP_GE_OQ);
  const __m256d two_abs = _mm256_add_pd(abs_v, abs_v);
  const __m256d a = select(big, _mm256_xor_pd(two_abs, sign_bit), two_abs);
  const __m256d k_zero = less_than(two_abs, kHalfLn2Edge);
  const __m256d k_minus_one =
      _mm256_andnot_pd(k_zero, less_than(two_abs, kThreeHalvesLn2Edge));
  const __m256d half = select(big, set1(-0.5), set1(0.5));
  __m256d kd = _mm256_round_pd(_mm256_fmadd_pd(set1(kInvLn2), a, half),
                               _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  kd = select(k_minus_one, kd, set1(-1.0));
  kd = select(k_zero, kd, _mm256_setzero_pd());
  const __m256d hi = _mm256_fnmadd_pd(kd, set1(kLn2Hi), a);
  const __m256d lo = _mm256_mul_pd(kd, set1(kLn2Lo));
  const __m256d x = _mm256_sub_pd(hi, lo);
  const __m256d c = _mm256_sub_pd(_mm256_sub_pd(hi, x), lo);

  const __m256d hfx = _mm256_mul_pd(set1(0.5), x);
  const __m256d hxs = _mm256_mul_pd(x, hfx);
  const __m256d r1_low = _mm256_fmadd_pd(hxs, set1(kQ1), set1(1.0));
  const __m256d h2 = _mm256_mul_pd(hxs, hxs);
  const __m256d r2 = _mm256_fmadd_pd(hxs, set1(kQ3), set1(kQ2));
  const __m256d h4 = _mm256_mul_pd(h2, h2);
  const __m256d r3 = _mm256_fmadd_pd(hxs, set1(kQ5), set1(kQ4));
  const __m256d r1 = _mm256_fmadd_pd(h4, r3, _mm256_fmadd_pd(h2, r2, r1_low));
  const __m256d t = _mm256_fnmadd_pd(r1, hfx, set1(3.0));
  const __m256d e = _mm256_mul_pd(
      hxs, _mm256_div_pd(_mm256_sub_pd(r1, t),
                         _mm256_fnmadd_pd(x, t, set1(6.0))));
  const __m256d em_k_zero = _mm256_sub_pd(x, _mm256_fmsub_pd(x, e, hxs));
  const __m256d ec = _mm256_sub_pd(
      _mm256_fmsub_pd(x, _mm256_sub_pd(e, c), c), hxs);
  const __m256d em_k_minus_one =
      _mm256_fmsub_pd(set1(0.5), _mm256_sub_pd(x, ec), set1(0.5));

  // |k| >= 2: build y, then multiply by 2^k by adding k to its exponent.
  const __m256i k_bits = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm256_cvttpd_epi32(kd)), 52);
  const __m256d two_to_minus_k = _mm256_castsi256_pd(
      _mm256_sub_epi64(_mm256_set1_epi64x(0x3ffLL << 52), k_bits));
  const __m256d k_small =  // 2 <= k < 20
      _mm256_and_pd(_mm256_cmp_pd(kd, set1(2.0), _CMP_GE_OQ),
                    less_than(kd, 20.0));
  const __m256d k_mid =  // 20 <= k <= 56
      _mm256_and_pd(_mm256_cmp_pd(kd, set1(20.0), _CMP_GE_OQ),
                    _mm256_cmp_pd(kd, set1(56.0), _CMP_LE_OQ));
  const __m256d e_minus_x = _mm256_sub_pd(ec, x);
  __m256d y = _mm256_sub_pd(set1(1.0), e_minus_x);  // k <= -2 or k > 56
  y = select(k_small, y,
             _mm256_sub_pd(_mm256_sub_pd(set1(1.0), two_to_minus_k),
                           e_minus_x));
  y = select(k_mid, y,
             _mm256_add_pd(_mm256_sub_pd(x, _mm256_add_pd(ec, two_to_minus_k)),
                           set1(1.0)));
  y = _mm256_castsi256_pd(_mm256_add_epi64(_mm256_castpd_si256(y), k_bits));
  __m256d em = select(_mm256_or_pd(k_small, k_mid),
                      _mm256_sub_pd(y, set1(1.0)), y);
  em = select(k_minus_one, em, em_k_minus_one);
  em = select(k_zero, em, em_k_zero);

  // tanh: 1 - 2/(em + 2) for |v| >= 1, -em/(em + 2) below; v's sign.
  const __m256d numerator =
      select(big, _mm256_xor_pd(em, sign_bit), set1(2.0));
  const __m256d q = _mm256_div_pd(numerator, _mm256_add_pd(em, set1(2.0)));
  const __m256d z = select(big, q, _mm256_sub_pd(set1(1.0), q));
  return _mm256_xor_pd(z, _mm256_and_pd(v, sign_bit));
}

/// Stores tanh4(v) to dst, recomputing fallback lanes with the scalar port.
void store_tanh4(double* dst, __m256d v) {
  int scalar_lanes = 0;
  _mm256_storeu_pd(dst, tanh4(v, scalar_lanes));
  if (scalar_lanes == 0) return;
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  for (int l = 0; l < 4; ++l) {
    if ((scalar_lanes >> l) & 1) dst[l] = fdlibm_tanh(lanes[l]);
  }
}

/// One (BT batch rows) x (8 neurons) tile: BT*2 independent accumulators,
/// each lane advancing its own strictly-sequential c-chain.
template <std::size_t BT>
void micro_tile(const double* panel, std::size_t in, const double* x,
                std::size_t x_stride, double* y, std::size_t y_stride,
                const double* bias, std::size_t r0, std::size_t valid,
                Epilogue epilogue) {
  __m256d acc_lo[BT];
  __m256d acc_hi[BT];
  for (std::size_t bt = 0; bt < BT; ++bt) {
    acc_lo[bt] = _mm256_setzero_pd();
    acc_hi[bt] = _mm256_setzero_pd();
  }
  for (std::size_t c = 0; c < in; ++c) {
    const __m256d w_lo = _mm256_load_pd(panel + c * kPanel);
    const __m256d w_hi = _mm256_load_pd(panel + c * kPanel + 4);
    for (std::size_t bt = 0; bt < BT; ++bt) {
      const __m256d xv = _mm256_set1_pd(x[bt * x_stride + c]);
      acc_lo[bt] = _mm256_add_pd(acc_lo[bt], _mm256_mul_pd(w_lo, xv));
      acc_hi[bt] = _mm256_add_pd(acc_hi[bt], _mm256_mul_pd(w_hi, xv));
    }
  }
  // Full panels store vectorized: one add for the bias (the same single
  // rounding as scalar), relu via max with acc as the first operand —
  // VMAXPD returns the *second* operand on a NaN/equal-zero first operand,
  // exactly matching the scalar `v > 0.0 ? v : 0.0` (which yields +0.0 for
  // -0.0 and NaN inputs) — and tanh via tanh4.
  if (valid == kPanel) {
    const bool none = epilogue == Epilogue::kNone;
    const __m256d b_lo = none ? _mm256_setzero_pd()
                              : _mm256_loadu_pd(bias + r0);
    const __m256d b_hi = none ? _mm256_setzero_pd()
                              : _mm256_loadu_pd(bias + r0 + 4);
    for (std::size_t bt = 0; bt < BT; ++bt) {
      __m256d v_lo = none ? acc_lo[bt] : _mm256_add_pd(acc_lo[bt], b_lo);
      __m256d v_hi = none ? acc_hi[bt] : _mm256_add_pd(acc_hi[bt], b_hi);
      if (epilogue == Epilogue::kBiasRelu) {
        v_lo = _mm256_max_pd(v_lo, _mm256_setzero_pd());
        v_hi = _mm256_max_pd(v_hi, _mm256_setzero_pd());
      }
      double* dst = y + bt * y_stride + r0;
      if (epilogue == Epilogue::kBiasTanh) {
        store_tanh4(dst, v_lo);
        store_tanh4(dst + 4, v_hi);
        continue;
      }
      _mm256_storeu_pd(dst, v_lo);
      _mm256_storeu_pd(dst + 4, v_hi);
    }
    return;
  }
  alignas(32) double tile[kPanel];
  for (std::size_t bt = 0; bt < BT; ++bt) {
    _mm256_store_pd(tile, acc_lo[bt]);
    _mm256_store_pd(tile + 4, acc_hi[bt]);
    apply_epilogue(y + bt * y_stride + r0, tile, bias, r0, valid, epilogue);
  }
}

}  // namespace

EXPLORA_REALTIME void avx2_kernel(const double* w, std::size_t out,
                                  std::size_t in, const double* x,
                                  std::size_t batch, double* y,
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

#endif  // EXPLORA_SIMD_AVX2
