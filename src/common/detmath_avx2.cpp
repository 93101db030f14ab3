// AVX2 lanes of detmath::log and detmath::sincos: the AVX2 twin of
// detmath_avx512.cpp, op for op on 4 doubles at a time, with vector masks
// and blendv where AVX-512 has mask registers. Compiled with -mavx2 -mfma
// (src/common/CMakeLists.txt) and, like every TU, -ffp-contract=off.
#include "common/detmath.hpp"

#if defined(EXPLORA_SIMD_AVX2)

#include <immintrin.h>  // det-ok: simd-intrinsic (approved kernel file)

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace explora::detmath::detail {

namespace {

constexpr std::size_t kLanes = 4;

[[nodiscard]] __m256d set1(double v) { return _mm256_set1_pd(v); }

[[nodiscard]] __m256i set1_bits(std::uint64_t v) {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}

[[nodiscard]] __m256d neg(__m256d v) {
  return _mm256_xor_pd(v, set1(-0.0));
}

[[nodiscard]] __m256d abs(__m256d v) { return _mm256_andnot_pd(set1(-0.0), v); }

/// |v| with the sign bit of `sign`.
[[nodiscard]] __m256d copysign(__m256d v, __m256d sign) {
  return _mm256_or_pd(_mm256_andnot_pd(set1(-0.0), v),
                      _mm256_and_pd(set1(-0.0), sign));
}

/// mask ? b : a, per lane.
[[nodiscard]] __m256d blend(__m256d a, __m256d b, __m256d mask) {
  return _mm256_blendv_pd(a, b, mask);
}

[[nodiscard]] __m256d less(__m256d a, __m256d b) {
  return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}

/// log on 4 lanes (see log8 in detmath_avx512.cpp). k = tmp >> 52 is taken
/// from the high 32-bit halves, since AVX2 has no 64-bit arithmetic shift.
[[nodiscard]] __m256d log4(__m256d x, int& scalar_lanes) {
  using namespace log_constants;
  const __m256d in_range = _mm256_and_pd(
      _mm256_cmp_pd(x, set1(kLogVectorMin), _CMP_GE_OQ),
      less(x, set1(std::numeric_limits<double>::infinity())));
  scalar_lanes = ~_mm256_movemask_pd(in_range) & 0xf;
  const __m256d near_one =
      _mm256_and_pd(_mm256_cmp_pd(x, set1(kNearOneMin), _CMP_GE_OQ),
                    less(x, set1(kNearOneMax)));

  // Table path.
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256i tmp = _mm256_sub_epi64(ix, set1_bits(kOff));
  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_srli_epi64(tmp, 52 - kTableBits),
                       set1_bits(kTableSize - 1)),
      1);
  const __m128i tmp_high = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      tmp, _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7)));
  const __m256d kd = _mm256_cvtepi32_pd(_mm_srai_epi32(tmp_high, 20));
  const __m256d z = _mm256_castsi256_pd(_mm256_sub_epi64(
      ix, _mm256_and_si256(tmp, set1_bits(0xfffULL << 52))));
  const auto* table = reinterpret_cast<const double*>(kTable);
  const __m256d invc = _mm256_i64gather_pd(table, idx, 8);
  const __m256d logc = _mm256_i64gather_pd(table + 1, idx, 8);
  const __m256d r = _mm256_fmadd_pd(z, invc, set1(-1.0));
  const __m256d w = _mm256_fmadd_pd(kd, set1(kLn2Hi), logc);
  const __m256d hi = _mm256_add_pd(w, r);
  const __m256d lo = _mm256_fmadd_pd(
      kd, set1(kLn2Lo), _mm256_add_pd(_mm256_sub_pd(w, hi), r));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d poly =
      _mm256_fmadd_pd(r2, _mm256_fmadd_pd(r, set1(kA[4]), set1(kA[3])),
                      _mm256_fmadd_pd(r, set1(kA[2]), set1(kA[1])));
  const __m256d table_log = _mm256_add_pd(
      _mm256_fmadd_pd(_mm256_mul_pd(r, r2), poly,
                      _mm256_fmadd_pd(r2, set1(kA[0]), lo)),
      hi);

  // Near-1 path.
  const __m256d q = _mm256_sub_pd(x, set1(1.0));
  const __m256d q2 = _mm256_mul_pd(q, q);
  const __m256d q3 = _mm256_mul_pd(q, q2);
  const __m256d inner3 = _mm256_fmadd_pd(
      q3, set1(kB[10]),
      _mm256_fmadd_pd(q2, set1(kB[9]),
                      _mm256_fmadd_pd(q, set1(kB[8]), set1(kB[7]))));
  const __m256d inner2 = _mm256_fmadd_pd(
      q3, inner3,
      _mm256_fmadd_pd(q2, set1(kB[6]),
                      _mm256_fmadd_pd(q, set1(kB[5]), set1(kB[4]))));
  const __m256d near_poly = _mm256_fmadd_pd(
      q3, inner2,
      _mm256_fmadd_pd(q2, set1(kB[3]),
                      _mm256_fmadd_pd(q, set1(kB[2]), set1(kB[1]))));
  const __m256d q_plus_w = _mm256_fmadd_pd(q, set1(0x1p27), q);
  const __m256d qhi = _mm256_fnmadd_pd(set1(0x1p27), q, q_plus_w);
  const __m256d qlo = _mm256_sub_pd(q, qhi);
  const __m256d qhi2 = _mm256_mul_pd(qhi, qhi);
  const __m256d near_hi = _mm256_fmadd_pd(qhi2, set1(kB[0]), q);
  __m256d near_lo =
      _mm256_fmadd_pd(qhi2, set1(kB[0]), _mm256_sub_pd(q, near_hi));
  near_lo = _mm256_fmadd_pd(_mm256_mul_pd(set1(kB[0]), qlo),
                            _mm256_add_pd(qhi, q), near_lo);
  const __m256d near_log =
      _mm256_add_pd(near_hi, _mm256_fmadd_pd(near_poly, q3, near_lo));
  return blend(table_log, near_log, near_one);
}

/// do_sin(a, da) and do_cos(a, da) on 4 lanes (see do_sincos8).
void do_sincos4(__m256d a, __m256d da, __m256d& sin_out, __m256d& cos_out) {
  using namespace sincos_constants;
  const __m256d abs_a = abs(a);
  const __m256d u = _mm256_add_pd(set1(kBig), abs_a);
  // k = round(|a| * 128), clamped into the table (32-bit min: the high
  // halves are zero after the mask).
  const __m256i k = _mm256_min_epu32(
      _mm256_and_si256(_mm256_castpd_si256(u), set1_bits(0xffffffffULL)),
      set1_bits(kTableEntries - 1));
  const __m256i idx = _mm256_slli_epi64(k, 2);
  const auto* base = reinterpret_cast<const double*>(kTable);
  const __m256d sn = _mm256_i64gather_pd(base, idx, 8);
  const __m256d ssn = _mm256_i64gather_pd(base + 1, idx, 8);
  const __m256d cs = _mm256_i64gather_pd(base + 2, idx, 8);
  const __m256d ccs = _mm256_i64gather_pd(base + 3, idx, 8);
  const __m256d frac = _mm256_sub_pd(abs_a, _mm256_sub_pd(u, set1(kBig)));

  // do_sin: TAYLOR_SIN below 0.126, the table above.
  const __m256d aa = _mm256_mul_pd(a, a);
  const __m256d taylor_poly = _mm256_fmadd_pd(
      _mm256_fmadd_pd(
          _mm256_fmadd_pd(_mm256_fmadd_pd(aa, set1(kS5), set1(kS4)), aa,
                          set1(kS3)),
          aa, set1(kS2)),
      aa, set1(kS1));
  const __m256d taylor = _mm256_add_pd(
      a, _mm256_fmadd_pd(aa,
                         _mm256_fmsub_pd(taylor_poly, a,
                                         _mm256_mul_pd(set1(0.5), da)),
                         da));
  const __m256d sin_dx =
      blend(da, neg(da), _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_LE_OQ));
  const __m256d xx = _mm256_mul_pd(frac, frac);
  const __m256d sin_s = _mm256_add_pd(
      frac, _mm256_fmadd_pd(_mm256_mul_pd(frac, xx),
                            _mm256_fmadd_pd(xx, set1(kSn5), set1(kSn3)),
                            sin_dx));
  const __m256d cos_series = _mm256_fmadd_pd(
      _mm256_fmadd_pd(xx, set1(kCs6), set1(kCs4)), xx, set1(kCs2));
  const __m256d sin_c =
      _mm256_fmadd_pd(frac, sin_dx, _mm256_mul_pd(xx, cos_series));
  const __m256d sin_cor = _mm256_fmadd_pd(
      cs, sin_s,
      _mm256_fnmadd_pd(sn, sin_c, _mm256_fmadd_pd(sin_s, ccs, ssn)));
  const __m256d table_sin = copysign(_mm256_add_pd(sn, sin_cor), a);
  sin_out = blend(table_sin, taylor, less(abs_a, set1(kTaylorMax)));

  // do_cos.
  const __m256d cos_dx =
      blend(da, neg(da), less(a, _mm256_setzero_pd()));
  const __m256d x = _mm256_add_pd(frac, cos_dx);
  const __m256d x2 = _mm256_mul_pd(x, x);
  const __m256d cos_s = _mm256_fmadd_pd(
      _mm256_mul_pd(x, x2), _mm256_fmadd_pd(x2, set1(kSn5), set1(kSn3)), x);
  const __m256d cos_c = _mm256_mul_pd(
      x2, _mm256_fmadd_pd(_mm256_fmadd_pd(x2, set1(kCs6), set1(kCs4)), x2,
                          set1(kCs2)));
  const __m256d cos_cor = _mm256_fnmadd_pd(
      sn, cos_s,
      _mm256_fnmadd_pd(cs, cos_c, _mm256_fnmadd_pd(cos_s, ssn, ccs)));
  cos_out = _mm256_add_pd(cs, cos_cor);
}

/// sincos on 4 lanes for |x| < 105414350 (see sincos8).
void sincos4(__m256d x, __m256d& sin_out, __m256d& cos_out,
             int& scalar_lanes) {
  using namespace sincos_constants;
  const __m256d abs_x = abs(x);
  scalar_lanes = ~_mm256_movemask_pd(less(abs_x, set1(kReduceMax))) & 0xf;
  const __m256d tiny = less(abs_x, set1(kTinyMax));
  const __m256d small = less(abs_x, set1(kSmallMax));
  const __m256d mid = less(abs_x, set1(kMidMax));

  // reduce_sincos.
  const __m256d t = _mm256_fmadd_pd(x, set1(kHpInv), set1(kToInt));
  const __m256d xn = _mm256_sub_pd(t, set1(kToInt));
  const __m256i n =
      _mm256_and_si256(_mm256_castpd_si256(t), _mm256_set1_epi64x(3));
  const __m256d y = _mm256_fnmadd_pd(
      xn, set1(kMp2), _mm256_fnmadd_pd(xn, set1(kMp1), x));
  const __m256d t2 = _mm256_fnmadd_pd(xn, set1(kPp3), y);
  __m256d db = _mm256_fnmadd_pd(xn, set1(kPp3), _mm256_sub_pd(y, t2));
  const __m256d b = _mm256_fnmadd_pd(xn, set1(kPp4), t2);
  db = _mm256_add_pd(
      db, _mm256_fnmadd_pd(xn, set1(kPp4), _mm256_sub_pd(t2, b)));
  const auto n_is = [&](long long v) {
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(n, _mm256_set1_epi64x(v)));
  };
  const __m256d negate = _mm256_or_pd(n_is(1), n_is(2));
  __m256d a = blend(b, neg(b), negate);
  __m256d da = blend(db, neg(db), negate);

  // pi/2 - |x| in two parts.
  const __m256d ym = _mm256_sub_pd(set1(kHp0), abs_x);
  const __m256d am = _mm256_add_pd(ym, set1(kHp1));
  const __m256d dam = _mm256_add_pd(_mm256_sub_pd(ym, am), set1(kHp1));
  a = blend(a, am, mid);
  da = blend(da, dam, mid);
  a = blend(a, x, small);
  da = blend(da, _mm256_setzero_pd(), small);

  __m256d s = _mm256_setzero_pd();
  __m256d c = _mm256_setzero_pd();
  do_sincos4(a, da, s, c);

  const __m256d c_signed = blend(c, neg(c), _mm256_or_pd(n_is(2), n_is(3)));
  const __m256d odd = _mm256_or_pd(n_is(1), n_is(3));
  __m256d sin_x = blend(s, c_signed, odd);
  __m256d cos_x = blend(c_signed, s, odd);
  sin_x = blend(sin_x, copysign(c, x), mid);
  cos_x = blend(cos_x, s, mid);
  sin_x = blend(sin_x, s, small);
  cos_x = blend(cos_x, c, small);
  sin_out = blend(sin_x, x, tiny);
  cos_out = blend(cos_x, set1(1.0), tiny);
}

/// Runs `block(at, valid, bits)` over n elements 4 at a time; `valid`
/// (a lane mask, and `bits` as a movemask) marks the lanes of a partial
/// last block, which load padding and store nothing.
template <typename Block>
void for_each_block(std::size_t n, Block&& block) {
  for (std::size_t at = 0; at < n; at += kLanes) {
    const auto count = static_cast<long long>(std::min(kLanes, n - at));
    const __m256i valid = _mm256_cmpgt_epi64(_mm256_set1_epi64x(count),
                                             _mm256_setr_epi64x(0, 1, 2, 3));
    block(at, valid, (1 << count) - 1);
  }
}

/// Calls `lane(l)` for each set bit l of `mask`.
template <typename Lane>
void for_each_lane(unsigned mask, Lane&& lane) {
  for (; mask != 0; mask &= mask - 1) {
    lane(static_cast<std::size_t>(std::countr_zero(mask)));
  }
}

void store_log(const double* x, double* y, __m256i valid, int bits) {
  int scalar_lanes = 0;
  // Padding lanes read 1.0, a log lane value on the table path.
  const __m256d args = blend(set1(1.0), _mm256_maskload_pd(x, valid),
                             _mm256_castsi256_pd(valid));
  _mm256_maskstore_pd(y, valid, log4(args, scalar_lanes));
  for_each_lane(static_cast<unsigned>(scalar_lanes & bits),
                [&](std::size_t l) { y[l] = log(x[l]); });
}

void store_sincos(const double* x, double* s, double* c, __m256i valid,
                  int bits) {
  int scalar_lanes = 0;
  __m256d sin_v = _mm256_setzero_pd();
  __m256d cos_v = _mm256_setzero_pd();
  // Padding lanes read 0.0.
  sincos4(_mm256_maskload_pd(x, valid), sin_v, cos_v, scalar_lanes);
  _mm256_maskstore_pd(s, valid, sin_v);
  _mm256_maskstore_pd(c, valid, cos_v);
  for_each_lane(static_cast<unsigned>(scalar_lanes & bits),
                [&](std::size_t l) {
                  const SinCos sc = sincos(x[l]);
                  s[l] = sc.sin;
                  c[l] = sc.cos;
                });
}

}  // namespace

void avx2_log_array(const double* x, double* y, std::size_t n) noexcept {
  for_each_block(n, [&](std::size_t at, __m256i valid, int bits) {
    store_log(x + at, y + at, valid, bits);
  });
}

void avx2_log_sincos_array(const double* x, const double* a, double* log_x,
                           double* sin_a, double* cos_a,
                           std::size_t n) noexcept {
  // Both inlined into one block, so the log and sincos chains overlap.
  for_each_block(n, [&](std::size_t at, __m256i valid, int bits) {
    store_log(x + at, log_x + at, valid, bits);
    store_sincos(a + at, sin_a + at, cos_a + at, valid, bits);
  });
}

}  // namespace explora::detmath::detail

#endif  // EXPLORA_SIMD_AVX2
