// AVX-512 backend: 8 batch rows x 8 output neurons per tile, one 512-bit
// register per packed weight panel column, separate mul + add (never FMA).
//
// Determinism: identical contract to the AVX2 backend — vector lane l of a
// panel owns output neuron r0+l and accumulates w[r0+l][c] * x[b][c] for
// c = 0,1,2,... in its own strictly-sequential chain; no horizontal
// reductions, so every output double is byte-identical to
// detail::scalar_kernel. The wider registers only change *which* neurons
// advance together (all 8 of a panel in one register instead of two
// 4-lane halves), never the per-neuron arithmetic order. The TU is
// compiled with -mavx512f -ffp-contract=off (src/ml/CMakeLists.txt).
//
// The tanh epilogue is tanh8(): a lane-wise copy of ml::fdlibm_tanh's
// operation sequence (ml/tanh.cpp), using only AVX512F instructions.
#include "ml/gemm.hpp"

#if defined(EXPLORA_SIMD_AVX512)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <cstddef>

#include "common/aligned.hpp"
#include "common/analysis_annotations.hpp"
#include "ml/tanh.hpp"

namespace explora::ml::gemm::detail {

namespace {

using namespace tanh_constants;

constexpr std::size_t kPanel = 8;      ///< output neurons per packed panel
constexpr std::size_t kBatchTile = 8;  ///< batch rows per microkernel call

/// Same packed layout as the AVX2 backend: panel p holds neurons
/// [p*8, p*8+8), the 8 weights of input c contiguous at offset c*8 —
/// exactly one aligned 512-bit load per (panel, c). Pad lanes are zero.
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

[[nodiscard]] __m512d set1(double v) { return _mm512_set1_pd(v); }

[[nodiscard]] __m512d flip_sign(__m512d v, __m512i sign_bits) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v),
                                              sign_bits));
}

/// fdlibm_tanh on 8 lanes, for lanes with kTanhVectorMin <= |v| <
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
  for (std::size_t l = 0; l < kPanel; ++l) {
    if ((scalar_lanes >> l) & 1U) dst[l] = fdlibm_tanh(lanes[l]);
  }
}

/// One (BT batch rows) x (8 neurons) tile: BT independent 8-lane
/// accumulators, each lane advancing its own strictly-sequential c-chain.
template <std::size_t BT>
void micro_tile(const double* panel, std::size_t in, const double* x,
                std::size_t x_stride, double* y, std::size_t y_stride,
                const double* bias, std::size_t r0, std::size_t valid,
                Epilogue epilogue) {
  __m512d acc[BT];
  for (std::size_t bt = 0; bt < BT; ++bt) acc[bt] = _mm512_setzero_pd();
  for (std::size_t c = 0; c < in; ++c) {
    const __m512d wv = _mm512_load_pd(panel + c * kPanel);
    for (std::size_t bt = 0; bt < BT; ++bt) {
      const __m512d xv = _mm512_set1_pd(x[bt * x_stride + c]);
      acc[bt] = _mm512_add_pd(acc[bt], _mm512_mul_pd(wv, xv));
    }
  }
  // Full panels store vectorized: one add for the bias (the same single
  // rounding as scalar), relu via max with acc as the first operand —
  // VMAXPD returns the *second* operand on a NaN/equal-zero first operand,
  // exactly matching the scalar `v > 0.0 ? v : 0.0` (which yields +0.0 for
  // -0.0 and NaN inputs) — and tanh via tanh8.
  if (valid == kPanel) {
    const __m512d bv = epilogue == Epilogue::kNone
                           ? _mm512_setzero_pd()
                           : _mm512_loadu_pd(bias + r0);
    for (std::size_t bt = 0; bt < BT; ++bt) {
      double* dst = y + bt * y_stride + r0;
      __m512d v = epilogue == Epilogue::kNone ? acc[bt]
                                              : _mm512_add_pd(acc[bt], bv);
      if (epilogue == Epilogue::kBiasRelu) {
        v = _mm512_max_pd(v, _mm512_setzero_pd());
      }
      if (epilogue == Epilogue::kBiasTanh) {
        store_tanh8(dst, v);
        continue;
      }
      _mm512_storeu_pd(dst, v);
    }
    return;
  }
  alignas(64) double tile[kPanel];
  for (std::size_t bt = 0; bt < BT; ++bt) {
    _mm512_store_pd(tile, acc[bt]);
    apply_epilogue(y + bt * y_stride + r0, tile, bias, r0, valid, epilogue);
  }
}

}  // namespace

EXPLORA_REALTIME void avx512_kernel(const double* w, std::size_t out,
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

#endif  // EXPLORA_SIMD_AVX512
