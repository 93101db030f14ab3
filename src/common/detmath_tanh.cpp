// Scalar port of fdlibm tanh + expm1 (see common/detmath.hpp for the
// contract).
// Compiled with -ffp-contract=off (root CMakeLists.txt): every fusion
// below is an explicit std::fma, and every other operation rounds alone.
#include "common/detmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>


namespace explora::detmath {

namespace {

using namespace tanh_constants;

[[nodiscard]] std::uint32_t high_word(double x) noexcept {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 32);
}

/// A double whose high word is `hi` and whose low word is zero.
[[nodiscard]] double from_high_word(std::uint32_t hi) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(hi) << 32);
}

/// y * 2^k by adding k to the exponent field (fdlibm's SET_HIGH_WORD(y,
/// high + (k << 20)); the low word is untouched either way).
[[nodiscard]] double add_to_exponent(double y, int k) noexcept {
  const auto shift = static_cast<std::uint64_t>(static_cast<std::int64_t>(k))
                     << 52;
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) + shift);
}

/// fdlibm expm1 over the arguments tanh passes: x in [2, 44) or
/// (-2, -2^-54]. So k = 1 (0.5 ln2 < x < 1.5 ln2), the tiny-argument
/// return and the overflow branches are unreachable and not ported.
[[nodiscard]] double expm1_for_tanh(double x) noexcept {
  const std::uint32_t hx = high_word(x) & 0x7fffffffU;
  const bool negative = std::signbit(x);
  int k = 0;
  double c = 0.0;
  if (hx > 0x3fd62e42U) {  // |x| > 0.5 ln2: argument reduction
    double hi = 0.0;
    double lo = 0.0;
    if (hx < 0x3ff0a2b2U) {  // and |x| < 1.5 ln2 (negative x here)
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int>(std::fma(kInvLn2, x, negative ? -0.5 : 0.5));
      const double t = k;
      hi = std::fma(-t, kLn2Hi, x);  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  }

  // x is now in the primary range |x| <= 0.5 ln2.
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double r1_low = std::fma(hxs, kQ1, 1.0);
  const double h2 = hxs * hxs;
  const double r2 = std::fma(hxs, kQ3, kQ2);
  const double h4 = h2 * h2;
  const double r3 = std::fma(hxs, kQ5, kQ4);
  const double r1 = std::fma(h4, r3, std::fma(h2, r2, r1_low));
  const double t = std::fma(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / std::fma(-x, t, 6.0));
  if (k == 0) return x - std::fma(x, e, -hxs);  // c is 0

  e = std::fma(x, e - c, -c) - hxs;
  if (k == -1) return std::fma(0.5, x - e, -0.5);
  if (k <= -2 || k > 56) return add_to_exponent(1.0 - (e - x), k) - 1.0;
  if (k < 20) {
    const double one_minus = from_high_word(0x3ff00000U - (0x200000U >> k));
    return add_to_exponent(one_minus - (e - x), k);  // 1 - 2^-k above
  }
  const double two_to_minus_k =
      from_high_word(static_cast<std::uint32_t>(0x3ff - k) << 20);
  return add_to_exponent((x - (e + two_to_minus_k)) + 1.0, k);
}

}  // namespace

double tanh(double x) noexcept {
  const std::uint32_t ix = high_word(x) & 0x7fffffffU;
  const bool negative = std::signbit(x);
  if (ix >= 0x7ff00000U) {  // +-inf -> +-1, NaN -> NaN
    return negative ? 1.0 / x - 1.0 : 1.0 / x + 1.0;
  }
  double z = 1.0;  // |x| >= 22
  if (ix < 0x40360000U) {  // |x| < 22
    if (x == 0.0) return x;  // det-ok: float-eq (+-0 keeps its sign)
    if (ix < 0x3c800000U) return x * (1.0 + x);  // |x| < 2^-55
    if (ix >= 0x3ff00000U) {  // |x| >= 1
      const double t = expm1_for_tanh(2.0 * std::fabs(x));
      z = 1.0 - 2.0 / (t + 2.0);
    } else {
      const double t = expm1_for_tanh(-2.0 * std::fabs(x));
      z = -t / (t + 2.0);
    }
  }
  return negative ? -z : z;
}

}  // namespace explora::detmath
