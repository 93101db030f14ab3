// AVX-512 lanes of detmath::log and detmath::sincos: the scalar ports'
// operation sequences (detmath_log.cpp, detmath_sincos.cpp) on 8 doubles
// at a time, every fused site one vfmadd/vfmsub/vfnmadd and every branch a
// mask, so each lane returns the scalar port's bits. Lanes outside a
// copy's range are recomputed by the scalar port. Compiled with -mavx512f
// (src/common/CMakeLists.txt) and, like every TU, -ffp-contract=off.
#include "common/detmath.hpp"

#if defined(EXPLORA_SIMD_AVX512)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace explora::detmath::detail {

namespace {

constexpr std::size_t kLanes = 8;
// The maskz_ forms with every lane set are the plain operations; GCC 12's
// unmasked wrappers start from _mm512_undefined_*() and trip
// -Wuninitialized.
constexpr __mmask8 kAllLanes = 0xff;

[[nodiscard]] __m512d set1(double v) { return _mm512_set1_pd(v); }

[[nodiscard]] __m512i set1_bits(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

[[nodiscard]] __m512d neg(__m512d v) {
  return _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(v), set1_bits(1ULL << 63)));
}

/// |v| with the sign bit of `sign`.
[[nodiscard]] __m512d copysign(__m512d v, __m512d sign) {
  const __m512i sign_bit = set1_bits(1ULL << 63);
  return _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_maskz_andnot_epi64(kAllLanes, sign_bit, _mm512_castpd_si512(v)),
      _mm512_and_si512(sign_bit, _mm512_castpd_si512(sign))));
}

/// log on 8 lanes: both of the scalar port's paths, blended by the near-1
/// mask. Zero, subnormal, negative, inf and NaN lanes come back set in
/// `scalar_lanes`.
[[nodiscard]] __m512d log8(__m512d x, __mmask8& scalar_lanes) {
  using namespace log_constants;
  scalar_lanes = static_cast<__mmask8>(
      ~(_mm512_cmp_pd_mask(x, set1(kLogVectorMin), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(x, set1(std::numeric_limits<double>::infinity()),
                           _CMP_LT_OQ)));
  const __mmask8 near_one =
      _mm512_cmp_pd_mask(x, set1(kNearOneMin), _CMP_GE_OQ) &
      _mm512_cmp_pd_mask(x, set1(kNearOneMax), _CMP_LT_OQ);

  // Table path.
  const __m512i ix = _mm512_castpd_si512(x);
  const __m512i tmp = _mm512_sub_epi64(ix, set1_bits(kOff));
  const __m512i idx = _mm512_maskz_slli_epi64(
      kAllLanes,
      _mm512_and_si512(_mm512_maskz_srli_epi64(kAllLanes, tmp,
                                               52 - kTableBits),
                       set1_bits(kTableSize - 1)),
      1);
  const __m512d kd = _mm512_maskz_cvtepi32_pd(
      kAllLanes, _mm512_maskz_cvtepi64_epi32(
                     kAllLanes, _mm512_maskz_srai_epi64(kAllLanes, tmp, 52)));
  const __m512d z = _mm512_castsi512_pd(_mm512_sub_epi64(
      ix, _mm512_and_si512(tmp, set1_bits(0xfffULL << 52))));
  const __m512d invc = _mm512_mask_i64gather_pd(_mm512_setzero_pd(),
                                                kAllLanes, idx, kTable, 8);
  const __m512d logc = _mm512_mask_i64gather_pd(
      _mm512_setzero_pd(), kAllLanes, idx, kTable + 1, 8);
  const __m512d r = _mm512_fmadd_pd(z, invc, set1(-1.0));
  const __m512d w = _mm512_fmadd_pd(kd, set1(kLn2Hi), logc);
  const __m512d hi = _mm512_add_pd(w, r);
  const __m512d lo = _mm512_fmadd_pd(
      kd, set1(kLn2Lo), _mm512_add_pd(_mm512_sub_pd(w, hi), r));
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d poly =
      _mm512_fmadd_pd(r2, _mm512_fmadd_pd(r, set1(kA[4]), set1(kA[3])),
                      _mm512_fmadd_pd(r, set1(kA[2]), set1(kA[1])));
  const __m512d table_log = _mm512_add_pd(
      _mm512_fmadd_pd(_mm512_mul_pd(r, r2), poly,
                      _mm512_fmadd_pd(r2, set1(kA[0]), lo)),
      hi);

  // Near-1 path.
  const __m512d q = _mm512_sub_pd(x, set1(1.0));
  const __m512d q2 = _mm512_mul_pd(q, q);
  const __m512d q3 = _mm512_mul_pd(q, q2);
  const __m512d inner3 = _mm512_fmadd_pd(
      q3, set1(kB[10]),
      _mm512_fmadd_pd(q2, set1(kB[9]),
                      _mm512_fmadd_pd(q, set1(kB[8]), set1(kB[7]))));
  const __m512d inner2 = _mm512_fmadd_pd(
      q3, inner3,
      _mm512_fmadd_pd(q2, set1(kB[6]),
                      _mm512_fmadd_pd(q, set1(kB[5]), set1(kB[4]))));
  const __m512d near_poly = _mm512_fmadd_pd(
      q3, inner2,
      _mm512_fmadd_pd(q2, set1(kB[3]),
                      _mm512_fmadd_pd(q, set1(kB[2]), set1(kB[1]))));
  const __m512d q_plus_w = _mm512_fmadd_pd(q, set1(0x1p27), q);
  const __m512d qhi = _mm512_fnmadd_pd(set1(0x1p27), q, q_plus_w);
  const __m512d qlo = _mm512_sub_pd(q, qhi);
  const __m512d qhi2 = _mm512_mul_pd(qhi, qhi);
  const __m512d near_hi = _mm512_fmadd_pd(qhi2, set1(kB[0]), q);
  __m512d near_lo =
      _mm512_fmadd_pd(qhi2, set1(kB[0]), _mm512_sub_pd(q, near_hi));
  near_lo = _mm512_fmadd_pd(_mm512_mul_pd(set1(kB[0]), qlo),
                            _mm512_add_pd(qhi, q), near_lo);
  const __m512d near_log =
      _mm512_add_pd(near_hi, _mm512_fmadd_pd(near_poly, q3, near_lo));
  return _mm512_mask_blend_pd(near_one, table_log, near_log);
}

/// The __sincostab row of k = round(|a| * 128), as four gathers. k is
/// clamped into the table: lanes outside every copy's range would
/// otherwise index past it.
struct TableRow {
  __m512d sn, ssn, cs, ccs;
};

[[nodiscard]] TableRow table_row(__m512d u) {
  using namespace sincos_constants;
  const __m512i k = _mm512_maskz_min_epu64(
      kAllLanes,
      _mm512_and_si512(_mm512_castpd_si512(u), set1_bits(0xffffffffULL)),
      set1_bits(kTableEntries - 1));
  const __m512i idx = _mm512_maskz_slli_epi64(kAllLanes, k, 2);
  const auto* base = reinterpret_cast<const double*>(kTable);
  const __m512d zero = _mm512_setzero_pd();
  return {_mm512_mask_i64gather_pd(zero, kAllLanes, idx, base, 8),
          _mm512_mask_i64gather_pd(zero, kAllLanes, idx, base + 1, 8),
          _mm512_mask_i64gather_pd(zero, kAllLanes, idx, base + 2, 8),
          _mm512_mask_i64gather_pd(zero, kAllLanes, idx, base + 3, 8)};
}

/// do_sin(a, da) and do_cos(a, da) on 8 lanes (|a| < 0.855469).
void do_sincos8(__m512d a, __m512d da, __m512d& sin_out, __m512d& cos_out) {
  using namespace sincos_constants;
  const __m512d abs_a = _mm512_abs_pd(a);
  const __m512d u = _mm512_add_pd(set1(kBig), abs_a);
  const TableRow row = table_row(u);
  const __m512d frac = _mm512_sub_pd(abs_a, _mm512_sub_pd(u, set1(kBig)));

  // do_sin: TAYLOR_SIN below 0.126, the table above.
  const __m512d aa = _mm512_mul_pd(a, a);
  const __m512d taylor_poly = _mm512_fmadd_pd(
      _mm512_fmadd_pd(
          _mm512_fmadd_pd(_mm512_fmadd_pd(aa, set1(kS5), set1(kS4)), aa,
                          set1(kS3)),
          aa, set1(kS2)),
      aa, set1(kS1));
  const __m512d taylor = _mm512_add_pd(
      a, _mm512_fmadd_pd(aa,
                         _mm512_fmsub_pd(taylor_poly, a,
                                         _mm512_mul_pd(set1(0.5), da)),
                         da));
  const __m512d sin_dx = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(a, _mm512_setzero_pd(), _CMP_LE_OQ), da, neg(da));
  const __m512d xx = _mm512_mul_pd(frac, frac);
  const __m512d sin_s = _mm512_add_pd(
      frac, _mm512_fmadd_pd(_mm512_mul_pd(frac, xx),
                            _mm512_fmadd_pd(xx, set1(kSn5), set1(kSn3)),
                            sin_dx));
  const __m512d cos_series = _mm512_fmadd_pd(
      _mm512_fmadd_pd(xx, set1(kCs6), set1(kCs4)), xx, set1(kCs2));
  const __m512d sin_c =
      _mm512_fmadd_pd(frac, sin_dx, _mm512_mul_pd(xx, cos_series));
  const __m512d sin_cor = _mm512_fmadd_pd(
      row.cs, sin_s,
      _mm512_fnmadd_pd(row.sn, sin_c,
                       _mm512_fmadd_pd(sin_s, row.ccs, row.ssn)));
  const __m512d table_sin = copysign(_mm512_add_pd(row.sn, sin_cor), a);
  sin_out = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(abs_a, set1(kTaylorMax), _CMP_LT_OQ), table_sin,
      taylor);

  // do_cos.
  const __m512d cos_dx = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(a, _mm512_setzero_pd(), _CMP_LT_OQ), da, neg(da));
  const __m512d x = _mm512_add_pd(frac, cos_dx);
  const __m512d x2 = _mm512_mul_pd(x, x);
  const __m512d cos_s = _mm512_fmadd_pd(
      _mm512_mul_pd(x, x2), _mm512_fmadd_pd(x2, set1(kSn5), set1(kSn3)), x);
  const __m512d cos_c = _mm512_mul_pd(
      x2, _mm512_fmadd_pd(_mm512_fmadd_pd(x2, set1(kCs6), set1(kCs4)), x2,
                          set1(kCs2)));
  const __m512d cos_cor = _mm512_fnmadd_pd(
      row.sn, cos_s,
      _mm512_fnmadd_pd(row.cs, cos_c,
                       _mm512_fnmadd_pd(cos_s, row.ssn, row.ccs)));
  cos_out = _mm512_add_pd(row.cs, cos_cor);
}

/// sincos on 8 lanes for |x| < 105414350: every branch's reduced argument,
/// one do_sin/do_cos pass, then the branch's signs and swap. Larger, inf
/// and NaN lanes come back set in `scalar_lanes`.
void sincos8(__m512d x, __m512d& sin_out, __m512d& cos_out,
             __mmask8& scalar_lanes) {
  using namespace sincos_constants;
  const __m512d abs_x = _mm512_abs_pd(x);
  scalar_lanes = static_cast<__mmask8>(
      ~_mm512_cmp_pd_mask(abs_x, set1(kReduceMax), _CMP_LT_OQ));
  const __mmask8 tiny = _mm512_cmp_pd_mask(abs_x, set1(kTinyMax), _CMP_LT_OQ);
  const __mmask8 small =
      _mm512_cmp_pd_mask(abs_x, set1(kSmallMax), _CMP_LT_OQ);
  const __mmask8 mid = _mm512_cmp_pd_mask(abs_x, set1(kMidMax), _CMP_LT_OQ);

  // reduce_sincos.
  const __m512d t = _mm512_fmadd_pd(x, set1(kHpInv), set1(kToInt));
  const __m512d xn = _mm512_sub_pd(t, set1(kToInt));
  const __m512i n =
      _mm512_and_si512(_mm512_castpd_si512(t), _mm512_set1_epi64(3));
  const __m512d y = _mm512_fnmadd_pd(
      xn, set1(kMp2), _mm512_fnmadd_pd(xn, set1(kMp1), x));
  const __m512d t2 = _mm512_fnmadd_pd(xn, set1(kPp3), y);
  __m512d db = _mm512_fnmadd_pd(xn, set1(kPp3), _mm512_sub_pd(y, t2));
  const __m512d b = _mm512_fnmadd_pd(xn, set1(kPp4), t2);
  db = _mm512_add_pd(
      db, _mm512_fnmadd_pd(xn, set1(kPp4), _mm512_sub_pd(t2, b)));
  const __mmask8 negate = _mm512_cmpeq_epi64_mask(n, _mm512_set1_epi64(1)) |
                          _mm512_cmpeq_epi64_mask(n, _mm512_set1_epi64(2));
  __m512d a = _mm512_mask_blend_pd(negate, b, neg(b));
  __m512d da = _mm512_mask_blend_pd(negate, db, neg(db));

  // pi/2 - |x| in two parts.
  const __m512d ym = _mm512_sub_pd(set1(kHp0), abs_x);
  const __m512d am = _mm512_add_pd(ym, set1(kHp1));
  const __m512d dam = _mm512_add_pd(_mm512_sub_pd(ym, am), set1(kHp1));
  a = _mm512_mask_blend_pd(mid, a, am);
  da = _mm512_mask_blend_pd(mid, da, dam);
  a = _mm512_mask_blend_pd(small, a, x);
  da = _mm512_mask_blend_pd(small, da, _mm512_setzero_pd());

  __m512d s = _mm512_setzero_pd();
  __m512d c = _mm512_setzero_pd();
  do_sincos8(a, da, s, c);

  const __m512d c_signed =
      _mm512_mask_blend_pd(_mm512_test_epi64_mask(n, _mm512_set1_epi64(2)),
                           c, neg(c));
  const __mmask8 odd = _mm512_test_epi64_mask(n, _mm512_set1_epi64(1));
  __m512d sin_x = _mm512_mask_blend_pd(odd, s, c_signed);
  __m512d cos_x = _mm512_mask_blend_pd(odd, c_signed, s);
  sin_x = _mm512_mask_blend_pd(mid, sin_x, copysign(c, x));
  cos_x = _mm512_mask_blend_pd(mid, cos_x, s);
  sin_x = _mm512_mask_blend_pd(small, sin_x, s);
  cos_x = _mm512_mask_blend_pd(small, cos_x, c);
  sin_out = _mm512_mask_blend_pd(tiny, sin_x, x);
  cos_out = _mm512_mask_blend_pd(tiny, cos_x, set1(1.0));
}

/// Runs `block(at, valid)` over n elements 8 at a time; `valid` masks the
/// lanes of a partial last block, which load padding and store nothing.
template <typename Block>
void for_each_block(std::size_t n, Block&& block) {
  for (std::size_t at = 0; at < n; at += kLanes) {
    const std::size_t count = std::min(kLanes, n - at);
    block(at, static_cast<__mmask8>((1U << count) - 1U));
  }
}

/// Calls `lane(l)` for each set bit l of `mask`.
template <typename Lane>
void for_each_lane(unsigned mask, Lane&& lane) {
  for (; mask != 0; mask &= mask - 1) {
    lane(static_cast<std::size_t>(std::countr_zero(mask)));
  }
}

/// x[at..] padded with 1.0, a log lane value on the table path.
[[nodiscard]] __m512d load_log_args(const double* x, __mmask8 valid) {
  return _mm512_mask_loadu_pd(set1(1.0), valid, x);
}

/// x[at..] padded with 0.0, a sincos lane value.
[[nodiscard]] __m512d load_sincos_args(const double* x, __mmask8 valid) {
  return _mm512_mask_loadu_pd(_mm512_setzero_pd(), valid, x);
}

void store_log(const double* x, double* y, __mmask8 valid) {
  __mmask8 scalar_lanes = 0;
  _mm512_mask_storeu_pd(y, valid, log8(load_log_args(x, valid), scalar_lanes));
  for_each_lane(scalar_lanes & valid, [&](std::size_t l) { y[l] = log(x[l]); });
}

void store_sincos(const double* x, double* s, double* c, __mmask8 valid) {
  __mmask8 scalar_lanes = 0;
  __m512d sin_v = _mm512_setzero_pd();
  __m512d cos_v = _mm512_setzero_pd();
  sincos8(load_sincos_args(x, valid), sin_v, cos_v, scalar_lanes);
  _mm512_mask_storeu_pd(s, valid, sin_v);
  _mm512_mask_storeu_pd(c, valid, cos_v);
  for_each_lane(scalar_lanes & valid, [&](std::size_t l) {
    const SinCos sc = sincos(x[l]);
    s[l] = sc.sin;
    c[l] = sc.cos;
  });
}

}  // namespace

void avx512_log_array(const double* x, double* y, std::size_t n) noexcept {
  for_each_block(n, [&](std::size_t at, __mmask8 valid) {
    store_log(x + at, y + at, valid);
  });
}

void avx512_log_sincos_array(const double* x, const double* a, double* log_x,
                             double* sin_a, double* cos_a,
                             std::size_t n) noexcept {
  // Both inlined into one block, so the log and sincos chains overlap.
  for_each_block(n, [&](std::size_t at, __mmask8 valid) {
    store_log(x + at, log_x + at, valid);
    store_sincos(a + at, sin_a + at, cos_a + at, valid);
  });
}

}  // namespace explora::detmath::detail

#endif  // EXPLORA_SIMD_AVX512
