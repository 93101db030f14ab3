// AVX2 backend: 6 batch rows x 8 output neurons per tile, reading the
// caller's weight panels (gemm::PanelWeights), separate mul + add (never
// FMA).
//
// Register residency: micro_tile is a template over its rows R and every
// loop over them carries `#pragma GCC unroll`, so the default -O2 build
// keeps all 2 x R = 12 accumulators (each panel's low and high half) in
// ymm registers across the c loop; with the two weight halves, the
// broadcast and one product that fills the 16 registers without a spill.
// Batch tails run the same template at their exact height (1..5 rows).
//
// Determinism: vector lane l of a panel owns output neuron r0+l and
// accumulates w[r0+l][c] * x[b][c] for c = 0,1,2,... — the same serial
// dependency chain the scalar kernel runs, just eight neurons at a time.
// No horizontal reduction ever happens, so every output double is
// byte-identical to detail::scalar_kernel. The TU is compiled with
// -mavx2 -mfma (src/ml/CMakeLists.txt) and, like every TU,
// -ffp-contract=off, so the compiler cannot re-fuse the explicit mul/add
// pairs.
//
// The tanh epilogue is tanh4(): a lane-wise copy of detmath::tanh's
// operation sequence (common/detmath_tanh.cpp). Its fused sites are the
// only FMA instructions here, which is why this backend also requires the
// CPU's FMA flag (common/detmath.cpp).
#include "ml/gemm.hpp"

#if defined(EXPLORA_SIMD_AVX2)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <cstddef>

#include "common/detmath.hpp"

namespace explora::ml::gemm::detail {

namespace {

using namespace detmath::exp_constants;
using namespace detmath::tanh_constants;

constexpr std::size_t kPanel = kPanelWidth;  ///< neurons per packed panel
constexpr std::size_t kLanes = 4;     ///< doubles per ymm register
constexpr std::size_t kHalves = kPanel / kLanes;  ///< registers per panel
constexpr std::size_t kTileRows = 6;  ///< batch rows per full tile

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

/// detmath::tanh on 4 lanes — the AVX2 twin of gemm_avx512.cpp's tanh8, op
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
    if ((scalar_lanes >> l) & 1) dst[l] = detmath::tanh(lanes[l]);
  }
}

/// Finishes one row of one panel from its spilled accumulator. Full panels
/// store vectorized: one add for the bias (the same single rounding as
/// scalar), relu via max with acc as the first operand — VMAXPD returns
/// the *second* operand on a NaN/equal-zero first operand, exactly
/// matching the scalar `v > 0.0 ? v : 0.0` (which yields +0.0 for -0.0 and
/// NaN inputs) — and tanh via tanh4. Partial panels take the scalar
/// epilogue.
void finish_panel(double* dst, const double* acc, const double* bias,
                  std::size_t r0, std::size_t valid, Epilogue epilogue) {
  if (valid != kPanel) {
    apply_epilogue(dst, acc, bias, r0, valid, epilogue);
    return;
  }
  for (std::size_t half = 0; half < kPanel; half += kLanes) {
    __m256d v = _mm256_load_pd(acc + half);
    if (epilogue != Epilogue::kNone) {
      v = _mm256_add_pd(v, _mm256_loadu_pd(bias + r0 + half));
    }
    if (epilogue == Epilogue::kBiasRelu) {
      v = _mm256_max_pd(v, _mm256_setzero_pd());
    }
    if (epilogue == Epilogue::kBiasTanh) {
      store_tanh4(dst + half, v);
      continue;
    }
    _mm256_storeu_pd(dst + half, v);
  }
}

/// One (R batch rows) x (8 neurons) tile: 2*R independent 4-lane
/// accumulators (a panel's low and high halves), each lane advancing its
/// own strictly-sequential c-chain. R is compile-time and every loop over
/// it carries `#pragma GCC unroll`, so at -O2 each accumulator is its own
/// ymm register (not a stack slot) for the whole c loop. The accumulators
/// are spilled once, after it, for the epilogue.
template <std::size_t R>
void micro_tile(const double* panel, std::size_t in, const double* x,
                double* y, std::size_t out, const double* bias,
                std::size_t r0, Epilogue epilogue) {
  __m256d acc[R][kHalves];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < R; ++i) {
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kHalves; ++h) acc[i][h] = _mm256_setzero_pd();
  }
  for (std::size_t c = 0; c < in; ++c) {
    __m256d wv[kHalves];
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kHalves; ++h) {
      wv[h] = _mm256_load_pd(panel + c * kPanel + h * kLanes);
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < R; ++i) {
      const __m256d xv = _mm256_set1_pd(x[i * in + c]);
#pragma GCC unroll 2
      for (std::size_t h = 0; h < kHalves; ++h) {
        acc[i][h] = _mm256_add_pd(acc[i][h], _mm256_mul_pd(wv[h], xv));
      }
    }
  }
  alignas(32) double tile[R][kPanel];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < R; ++i) {
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kHalves; ++h) {
      _mm256_store_pd(tile[i] + h * kLanes, acc[i][h]);
    }
  }
  const std::size_t valid = out - r0 < kPanel ? out - r0 : kPanel;
  for (std::size_t i = 0; i < R; ++i) {
    finish_panel(y + i * out + r0, tile[i], bias, r0, valid, epilogue);
  }
}

/// R batch rows against every panel.
template <std::size_t R>
void row_block(const double* packed, std::size_t panels, std::size_t in,
               const double* x, double* y, std::size_t out,
               const double* bias, Epilogue epilogue) {
  for (std::size_t p = 0; p < panels; ++p) {
    micro_tile<R>(packed + p * in * kPanel, in, x, y, out, bias, p * kPanel,
                  epilogue);
  }
}

/// The batch tail (rows < kTileRows), dispatched to its exact tile height.
template <std::size_t R>
void tail_block(std::size_t rows, const double* packed, std::size_t panels,
                std::size_t in, const double* x, double* y, std::size_t out,
                const double* bias, Epilogue epilogue) {
  if constexpr (R > 0) {
    if (rows == R) {
      row_block<R>(packed, panels, in, x, y, out, bias, epilogue);
      return;
    }
    tail_block<R - 1>(rows, packed, panels, in, x, y, out, bias, epilogue);
  }
}

/// detmath::exp on 4 lanes — the AVX2 twin of gemm_avx512.cpp's exp8, op for
/// op. Lanes at or above kExpVectorMax, inf and NaN come back as bits of
/// `scalar_lanes` for the caller to recompute with the scalar port.
[[nodiscard]] __m256d exp4(__m256d v, int& scalar_lanes) {
  const __m256d abs_v = _mm256_andnot_pd(set1(-0.0), v);
  scalar_lanes = _mm256_movemask_pd(
      _mm256_cmp_pd(abs_v, set1(kExpVectorMax), _CMP_NLT_UQ));
  const __m256d tiny = less_than(abs_v, kExpVectorMin);
  const __m256d shifted = _mm256_fmadd_pd(v, set1(kInvLn2N), set1(kShift));
  const __m256i ki = _mm256_castpd_si256(shifted);
  const __m256d kd = _mm256_sub_pd(shifted, set1(kShift));
  const __m256d r = _mm256_fmadd_pd(
      kd, set1(kNegLn2LoN), _mm256_fmadd_pd(kd, set1(kNegLn2HiN), v));
  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(ki, _mm256_set1_epi64x(
                               static_cast<long long>(kTableSize - 1))),
      1);
  const __m256i all_lanes = _mm256_set1_epi64x(-1);
  const __m256d tail = _mm256_mask_i64gather_pd(
      _mm256_setzero_pd(), reinterpret_cast<const double*>(kTable), idx,
      _mm256_castsi256_pd(all_lanes), 8);
  const __m256i scale_base = _mm256_mask_i64gather_epi64(
      _mm256_setzero_si256(), reinterpret_cast<const long long*>(kTable + 1),
      idx, all_lanes, 8);
  const __m256d scale = _mm256_castsi256_pd(_mm256_add_epi64(
      scale_base, _mm256_slli_epi64(ki, 52 - kTableBits)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2), _mm256_fmadd_pd(r, set1(kC5), set1(kC4)),
      _mm256_fmadd_pd(_mm256_fmadd_pd(r, set1(kC3), set1(kC2)), r2,
                      _mm256_add_pd(tail, r)));
  const __m256d e = _mm256_fmadd_pd(scale, tmp, scale);
  return select(tiny, e, _mm256_add_pd(set1(1.0), v));
}

/// exp4 with its fallback lanes recomputed by the scalar port.
[[nodiscard]] __m256d exp4_exact(__m256d v) {
  int scalar_lanes = 0;
  const __m256d e = exp4(v, scalar_lanes);
  if (scalar_lanes == 0) return e;
  alignas(32) double args[kLanes];
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(args, v);
  _mm256_store_pd(lanes, e);
  for (std::size_t l = 0; l < kLanes; ++l) {
    if ((scalar_lanes >> l) & 1) lanes[l] = detmath::exp(args[l]);
  }
  return _mm256_load_pd(lanes);
}

}  // namespace

void avx2_exp_array(const double* x, double* y, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_pd(y + i, exp4_exact(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] = detmath::exp(x[i]);
}

/// Each element j of the 8 softmaxes is two ymm halves; both halves
/// advance together through the peak scan, the exp and the running sum,
/// in the scalar element order.
void avx2_softmax_chosen_lanes(const double* block, std::size_t width,
                               std::size_t chosen, double* probs) noexcept {
  static_assert(kSoftmaxLanes == kPanel);
  __m256d peak[kHalves];
  __m256d sum[kHalves];
  __m256d picked[kHalves];
#pragma GCC unroll 2
  for (std::size_t h = 0; h < kHalves; ++h) {
    peak[h] = _mm256_loadu_pd(block + h * kLanes);
    sum[h] = _mm256_setzero_pd();
    picked[h] = _mm256_setzero_pd();
  }
  for (std::size_t j = 1; j < width; ++j) {
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kHalves; ++h) {
      const __m256d v = _mm256_loadu_pd(block + j * kPanel + h * kLanes);
      peak[h] = select(_mm256_cmp_pd(peak[h], v, _CMP_LT_OQ), peak[h], v);
    }
  }
  for (std::size_t j = 0; j < width; ++j) {
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kHalves; ++h) {
      const __m256d e = exp4_exact(_mm256_sub_pd(
          _mm256_loadu_pd(block + j * kPanel + h * kLanes), peak[h]));
      sum[h] = _mm256_add_pd(sum[h], e);
      if (j == chosen) picked[h] = e;
    }
  }
#pragma GCC unroll 2
  for (std::size_t h = 0; h < kHalves; ++h) {
    _mm256_storeu_pd(probs + h * kLanes, _mm256_div_pd(picked[h], sum[h]));
  }
}

void avx2_kernel(PanelWeights w, const double* x, std::size_t batch,
                 double* y, const double* bias, Epilogue epilogue) {
  const std::size_t panels = (w.out + kPanel - 1) / kPanel;
  const std::size_t in = w.in;
  const std::size_t out = w.out;
  std::size_t b = 0;
  for (; b + kTileRows <= batch; b += kTileRows) {
    row_block<kTileRows>(w.panels, panels, in, x + b * in, y + b * out, out,
                         bias, epilogue);
  }
  tail_block<kTileRows - 1>(batch - b, w.panels, panels, in, x + b * in,
                            y + b * out, out, bias, epilogue);
}

}  // namespace explora::ml::gemm::detail

#endif  // EXPLORA_SIMD_AVX2
