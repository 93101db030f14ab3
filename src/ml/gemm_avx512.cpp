// AVX-512 backend: 6 batch rows x 2 panels of 8 output neurons per tile
// (the caller's weight panels, gemm::PanelWeights), one 512-bit register
// per (row, panel) accumulator, separate mul + add (never FMA).
//
// Register residency: micro_tile is a template over its rows R and panels
// P, and every loop over them carries `#pragma GCC unroll`, so the default
// -O2 build keeps all R x P = 12 accumulators in zmm registers across the
// c loop (2 weight loads, 6 broadcasts, 12 mul + 12 add per input column)
// instead of reloading and spilling them per column. Batch tails run the
// same template at their exact height (1..5 rows), and an odd last panel
// runs with P = 1.
//
// Determinism: identical contract to the AVX2 backend — vector lane l of a
// panel owns output neuron r0+l and accumulates w[r0+l][c] * x[b][c] for
// c = 0,1,2,... in its own strictly-sequential chain; no horizontal
// reductions, so every output double is byte-identical to
// detail::scalar_kernel. The wider registers only change *which* neurons
// advance together (all 8 of a panel in one register instead of two
// 4-lane halves), never the per-neuron arithmetic order; the tile shape
// likewise only changes which chains advance side by side. The TU is
// compiled with -mavx512f (src/ml/CMakeLists.txt) and, like every TU,
// -ffp-contract=off.
//
// The tanh epilogue is tanh8(): a lane-wise copy of detmath::tanh's
// operation sequence (common/detmath_tanh.cpp), using only AVX512F
// instructions.
#include "ml/gemm.hpp"

#if defined(EXPLORA_SIMD_AVX512)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <cstddef>

#include "common/detmath.hpp"

namespace explora::ml::gemm::detail {

namespace {

using namespace detmath::exp_constants;
using namespace detmath::tanh_constants;

constexpr std::size_t kPanel = kPanelWidth;  ///< neurons per packed panel
constexpr std::size_t kTileRows = 6;    ///< batch rows per full tile
constexpr std::size_t kTilePanels = 2;  ///< panels per full tile

[[nodiscard]] __m512d set1(double v) { return _mm512_set1_pd(v); }

[[nodiscard]] __m512d flip_sign(__m512d v, __m512i sign_bits) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v),
                                              sign_bits));
}

/// detmath::tanh on 8 lanes, for lanes with kTanhVectorMin <= |v| <
/// kTanhVectorMax; the caller recomputes the lanes outside that range
/// (returned in `scalar_lanes`) with the scalar port. fdlibm's branches
/// become masks: |v| >= 1 takes expm1(2|v|), else expm1(-2|v|), and the
/// expm1 reduction picks k = 0, k = -1 or k = trunc(fma(invln2, a, +-0.5))
/// by the same edges. Each fused site is one vfmadd/vfmsub/vfnmadd.
[[nodiscard]] __m512d tanh8(__m512d v, __mmask8& scalar_lanes) {
  const __m512d abs_v = _mm512_abs_pd(v);
  scalar_lanes = static_cast<__mmask8>(
      ~(_mm512_cmp_pd_mask(abs_v, set1(kTanhVectorMin), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(abs_v, set1(kTanhVectorMax), _CMP_LT_OQ)));
  const __m512i sign_bit = _mm512_castpd_si512(set1(-0.0));

  // expm1(a) with a = 2|v| (|v| >= 1) or -2|v|.
  const __mmask8 big = _mm512_cmp_pd_mask(abs_v, set1(1.0), _CMP_GE_OQ);
  const __m512d two_abs = _mm512_add_pd(abs_v, abs_v);
  const __m512d a =
      _mm512_mask_blend_pd(big, flip_sign(two_abs, sign_bit), two_abs);
  const __mmask8 k_zero =
      _mm512_cmp_pd_mask(two_abs, set1(kHalfLn2Edge), _CMP_LT_OQ);
  const __mmask8 k_minus_one = static_cast<__mmask8>(
      ~k_zero &
      _mm512_cmp_pd_mask(two_abs, set1(kThreeHalvesLn2Edge), _CMP_LT_OQ));
  const __m512d half = _mm512_mask_blend_pd(big, set1(-0.5), set1(0.5));
  // The maskz_ forms with every lane set are the plain operations; GCC
  // 12's unmasked wrappers start from _mm512_undefined_*() and trip
  // -Wuninitialized.
  constexpr __mmask8 kAllLanes = 0xff;
  __m512d kd = _mm512_maskz_roundscale_pd(
      kAllLanes, _mm512_fmadd_pd(set1(kInvLn2), a, half),
      _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  kd = _mm512_mask_blend_pd(k_minus_one, kd, set1(-1.0));
  kd = _mm512_mask_blend_pd(k_zero, kd, _mm512_setzero_pd());
  const __m512d hi = _mm512_fnmadd_pd(kd, set1(kLn2Hi), a);
  const __m512d lo = _mm512_mul_pd(kd, set1(kLn2Lo));
  const __m512d x = _mm512_sub_pd(hi, lo);
  const __m512d c = _mm512_sub_pd(_mm512_sub_pd(hi, x), lo);

  const __m512d hfx = _mm512_mul_pd(set1(0.5), x);
  const __m512d hxs = _mm512_mul_pd(x, hfx);
  const __m512d r1_low = _mm512_fmadd_pd(hxs, set1(kQ1), set1(1.0));
  const __m512d h2 = _mm512_mul_pd(hxs, hxs);
  const __m512d r2 = _mm512_fmadd_pd(hxs, set1(kQ3), set1(kQ2));
  const __m512d h4 = _mm512_mul_pd(h2, h2);
  const __m512d r3 = _mm512_fmadd_pd(hxs, set1(kQ5), set1(kQ4));
  const __m512d r1 = _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1_low));
  const __m512d t = _mm512_fnmadd_pd(r1, hfx, set1(3.0));
  const __m512d e = _mm512_mul_pd(
      hxs, _mm512_div_pd(_mm512_sub_pd(r1, t),
                         _mm512_fnmadd_pd(x, t, set1(6.0))));
  const __m512d em_k_zero = _mm512_sub_pd(x, _mm512_fmsub_pd(x, e, hxs));
  const __m512d ec = _mm512_sub_pd(
      _mm512_fmsub_pd(x, _mm512_sub_pd(e, c), c), hxs);
  const __m512d em_k_minus_one =
      _mm512_fmsub_pd(set1(0.5), _mm512_sub_pd(x, ec), set1(0.5));

  // |k| >= 2: build y, then multiply by 2^k by adding k to its exponent.
  const __m512i k_bits = _mm512_maskz_slli_epi64(
      kAllLanes,
      _mm512_maskz_cvtepi32_epi64(kAllLanes,
                                  _mm512_maskz_cvttpd_epi32(kAllLanes, kd)),
      52);
  const __m512d two_to_minus_k = _mm512_castsi512_pd(
      _mm512_sub_epi64(_mm512_set1_epi64(0x3ffLL << 52), k_bits));
  const __mmask8 k_small =  // 2 <= k < 20
      _mm512_cmp_pd_mask(kd, set1(2.0), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(kd, set1(20.0), _CMP_LT_OQ);
  const __mmask8 k_mid =  // 20 <= k <= 56
      _mm512_cmp_pd_mask(kd, set1(20.0), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(kd, set1(56.0), _CMP_LE_OQ);
  const __m512d e_minus_x = _mm512_sub_pd(ec, x);
  __m512d y = _mm512_sub_pd(set1(1.0), e_minus_x);  // k <= -2 or k > 56
  y = _mm512_mask_blend_pd(
      k_small, y,
      _mm512_sub_pd(_mm512_sub_pd(set1(1.0), two_to_minus_k), e_minus_x));
  y = _mm512_mask_blend_pd(
      k_mid, y,
      _mm512_add_pd(_mm512_sub_pd(x, _mm512_add_pd(ec, two_to_minus_k)),
                    set1(1.0)));
  y = _mm512_castsi512_pd(_mm512_add_epi64(_mm512_castpd_si512(y), k_bits));
  __m512d em = _mm512_mask_blend_pd(static_cast<__mmask8>(k_small | k_mid),
                                    _mm512_sub_pd(y, set1(1.0)), y);
  em = _mm512_mask_blend_pd(k_minus_one, em, em_k_minus_one);
  em = _mm512_mask_blend_pd(k_zero, em, em_k_zero);

  // tanh: 1 - 2/(em + 2) for |v| >= 1, -em/(em + 2) below; v's sign.
  const __m512d numerator =
      _mm512_mask_blend_pd(big, flip_sign(em, sign_bit), set1(2.0));
  const __m512d q = _mm512_div_pd(numerator, _mm512_add_pd(em, set1(2.0)));
  const __m512d z = _mm512_mask_blend_pd(big, q, _mm512_sub_pd(set1(1.0), q));
  return flip_sign(z, _mm512_and_si512(_mm512_castpd_si512(v), sign_bit));
}

/// Stores tanh8(v) to dst, recomputing fallback lanes with the scalar port.
void store_tanh8(double* dst, __m512d v) {
  __mmask8 scalar_lanes = 0;
  _mm512_storeu_pd(dst, tanh8(v, scalar_lanes));
  if (scalar_lanes == 0) return;
  alignas(64) double lanes[kPanel];
  _mm512_store_pd(lanes, v);
  const unsigned fallback = scalar_lanes;
  for (std::size_t l = 0; l < kPanel; ++l) {
    if (((fallback >> l) & 1U) != 0U) dst[l] = detmath::tanh(lanes[l]);
  }
}

/// Finishes one row of one panel from its spilled accumulator. Full panels
/// store vectorized: one add for the bias (the same single rounding as
/// scalar), relu via max with acc as the first operand — VMAXPD returns
/// the *second* operand on a NaN/equal-zero first operand, exactly
/// matching the scalar `v > 0.0 ? v : 0.0` (which yields +0.0 for -0.0 and
/// NaN inputs) — and tanh via tanh8. Partial panels take the scalar
/// epilogue.
void finish_panel(double* dst, const double* acc, const double* bias,
                  std::size_t r0, std::size_t valid, Epilogue epilogue) {
  if (valid != kPanel) {
    apply_epilogue(dst, acc, bias, r0, valid, epilogue);
    return;
  }
  __m512d v = _mm512_load_pd(acc);
  if (epilogue != Epilogue::kNone) {
    v = _mm512_add_pd(v, _mm512_loadu_pd(bias + r0));
  }
  if (epilogue == Epilogue::kBiasRelu) {
    v = _mm512_max_pd(v, _mm512_setzero_pd());
  }
  if (epilogue == Epilogue::kBiasTanh) {
    store_tanh8(dst, v);
    return;
  }
  _mm512_storeu_pd(dst, v);
}

/// One (R batch rows) x (P panels of 8 neurons) tile: R*P independent
/// 8-lane accumulators, each lane advancing its own strictly-sequential
/// c-chain. R and P are compile-time and every loop over them carries
/// `#pragma GCC unroll`, so at -O2 each accumulator is its own zmm
/// register (not a stack slot) for the whole c loop. The accumulators are
/// spilled once, after it, for the per-panel epilogue.
template <std::size_t R, std::size_t P>
void micro_tile(const double* panels, std::size_t in, const double* x,
                double* y, std::size_t out, const double* bias,
                std::size_t r0, Epilogue epilogue) {
  __m512d acc[R][P];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < R; ++i) {
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) acc[i][p] = _mm512_setzero_pd();
  }
  for (std::size_t c = 0; c < in; ++c) {
    __m512d wv[P];
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) {
      wv[p] = _mm512_load_pd(panels + p * in * kPanel + c * kPanel);
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < R; ++i) {
      const __m512d xv = _mm512_set1_pd(x[i * in + c]);
#pragma GCC unroll 8
      for (std::size_t p = 0; p < P; ++p) {
        acc[i][p] = _mm512_add_pd(acc[i][p], _mm512_mul_pd(wv[p], xv));
      }
    }
  }
  alignas(64) double tile[R][P][kPanel];
#pragma GCC unroll 8
  for (std::size_t i = 0; i < R; ++i) {
#pragma GCC unroll 8
    for (std::size_t p = 0; p < P; ++p) _mm512_store_pd(tile[i][p], acc[i][p]);
  }
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t rp = r0 + p * kPanel;
    const std::size_t valid = out - rp < kPanel ? out - rp : kPanel;
    for (std::size_t i = 0; i < R; ++i) {
      finish_panel(y + i * out + rp, tile[i][p], bias, rp, valid, epilogue);
    }
  }
}

/// R batch rows against every panel: pairs of panels, then the odd one.
template <std::size_t R>
void row_block(const double* packed, std::size_t panels, std::size_t in,
               const double* x, double* y, std::size_t out,
               const double* bias, Epilogue epilogue) {
  std::size_t p = 0;
  for (; p + kTilePanels <= panels; p += kTilePanels) {
    micro_tile<R, kTilePanels>(packed + p * in * kPanel, in, x, y, out, bias,
                               p * kPanel, epilogue);
  }
  if (p < panels) {
    micro_tile<R, 1>(packed + p * in * kPanel, in, x, y, out, bias,
                     p * kPanel, epilogue);
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

/// detmath::exp on 8 lanes: glibc's main path for kExpVectorMin <= |v| <
/// kExpVectorMax and 1 + v below it. Lanes at or above kExpVectorMax, inf
/// and NaN come back set in `scalar_lanes` for the caller to recompute
/// with the scalar port. The table lookups are two gathers (tail bits and
/// scale bits) at index 2 (k mod N); each fused site is one vfmadd.
[[nodiscard]] __m512d exp8(__m512d v, __mmask8& scalar_lanes) {
  constexpr __mmask8 kAllLanes = 0xff;
  const __m512d abs_v = _mm512_abs_pd(v);
  scalar_lanes =
      _mm512_cmp_pd_mask(abs_v, set1(kExpVectorMax), _CMP_NLT_UQ);
  const __mmask8 tiny =
      _mm512_cmp_pd_mask(abs_v, set1(kExpVectorMin), _CMP_LT_OQ);
  const __m512d shifted = _mm512_fmadd_pd(v, set1(kInvLn2N), set1(kShift));
  const __m512i ki = _mm512_castpd_si512(shifted);
  const __m512d kd = _mm512_sub_pd(shifted, set1(kShift));
  const __m512d r = _mm512_fmadd_pd(
      kd, set1(kNegLn2LoN), _mm512_fmadd_pd(kd, set1(kNegLn2HiN), v));
  const __m512i idx = _mm512_maskz_slli_epi64(
      kAllLanes,
      _mm512_and_si512(ki, _mm512_set1_epi64(
                               static_cast<long long>(kTableSize - 1))),
      1);
  const __m512d tail = _mm512_mask_i64gather_pd(
      _mm512_setzero_pd(), kAllLanes, idx, kTable, 8);
  const __m512i scale_base = _mm512_mask_i64gather_epi64(
      _mm512_setzero_si512(), kAllLanes, idx, kTable + 1, 8);
  const __m512d scale = _mm512_castsi512_pd(_mm512_add_epi64(
      scale_base,
      _mm512_maskz_slli_epi64(kAllLanes, ki, 52 - kTableBits)));
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d tmp = _mm512_fmadd_pd(
      _mm512_mul_pd(r2, r2), _mm512_fmadd_pd(r, set1(kC5), set1(kC4)),
      _mm512_fmadd_pd(_mm512_fmadd_pd(r, set1(kC3), set1(kC2)), r2,
                      _mm512_add_pd(tail, r)));
  const __m512d e = _mm512_fmadd_pd(scale, tmp, scale);
  return _mm512_mask_blend_pd(tiny, e, _mm512_add_pd(set1(1.0), v));
}

/// exp8 with its fallback lanes recomputed by the scalar port.
[[nodiscard]] __m512d exp8_exact(__m512d v) {
  __mmask8 scalar_lanes = 0;
  const __m512d e = exp8(v, scalar_lanes);
  if (scalar_lanes == 0) return e;
  alignas(64) double args[kPanel];
  alignas(64) double lanes[kPanel];
  _mm512_store_pd(args, v);
  _mm512_store_pd(lanes, e);
  const unsigned fallback = scalar_lanes;
  for (std::size_t l = 0; l < kPanel; ++l) {
    if (((fallback >> l) & 1U) != 0U) lanes[l] = detmath::exp(args[l]);
  }
  return _mm512_load_pd(lanes);
}

}  // namespace

void avx512_exp_array(const double* x, double* y, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + kPanel <= n; i += kPanel) {
    _mm512_storeu_pd(y + i, exp8_exact(_mm512_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] = detmath::exp(x[i]);
}

/// One zmm per element j holds that element of all 8 softmaxes, so the
/// peak scan, the exp and the running sum each advance 8 lanes per
/// instruction in the scalar element order.
void avx512_softmax_chosen_lanes(const double* block, std::size_t width,
                                 std::size_t chosen, double* probs) noexcept {
  static_assert(kSoftmaxLanes == kPanel);
  __m512d peak = _mm512_loadu_pd(block);
  for (std::size_t j = 1; j < width; ++j) {
    const __m512d v = _mm512_loadu_pd(block + j * kPanel);
    peak = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(peak, v, _CMP_LT_OQ),
                                peak, v);
  }
  __m512d sum = _mm512_setzero_pd();
  __m512d picked = _mm512_setzero_pd();
  for (std::size_t j = 0; j < width; ++j) {
    const __m512d e =
        exp8_exact(_mm512_sub_pd(_mm512_loadu_pd(block + j * kPanel), peak));
    sum = _mm512_add_pd(sum, e);
    if (j == chosen) picked = e;
  }
  _mm512_storeu_pd(probs, _mm512_div_pd(picked, sum));
}

void avx512_kernel(PanelWeights w, const double* x, std::size_t batch,
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

#endif  // EXPLORA_SIMD_AVX512
