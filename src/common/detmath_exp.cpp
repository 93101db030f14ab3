// Scalar port of glibc 2.36's exp (see common/detmath.hpp for the
// contract).
// Compiled with -ffp-contract=off (root CMakeLists.txt): every fusion
// below is an explicit std::fma, and every other operation rounds alone.
#include "common/detmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>


namespace explora::detmath {

namespace exp_constants {

alignas(64) const std::uint64_t kTable[2 * kTableSize] = {
    0x0000000000000000ULL, 0x3ff0000000000000ULL,  // j = 0
    0x3c9b3b4f1a88bf6eULL, 0x3feff63da9fb3335ULL,  // j = 1
    0xbc7160139cd8dc5dULL, 0x3fefec9a3e778061ULL,  // j = 2
    0xbc905e7a108766d1ULL, 0x3fefe315e86e7f85ULL,  // j = 3
    0x3c8cd2523567f613ULL, 0x3fefd9b0d3158574ULL,  // j = 4
    0xbc8bce8023f98efaULL, 0x3fefd06b29ddf6deULL,  // j = 5
    0x3c60f74e61e6c861ULL, 0x3fefc74518759bc8ULL,  // j = 6
    0x3c90a3e45b33d399ULL, 0x3fefbe3ecac6f383ULL,  // j = 7
    0x3c979aa65d837b6dULL, 0x3fefb5586cf9890fULL,  // j = 8
    0x3c8eb51a92fdeffcULL, 0x3fefac922b7247f7ULL,  // j = 9
    0x3c3ebe3d702f9cd1ULL, 0x3fefa3ec32d3d1a2ULL,  // j = 10
    0xbc6a033489906e0bULL, 0x3fef9b66affed31bULL,  // j = 11
    0xbc9556522a2fbd0eULL, 0x3fef9301d0125b51ULL,  // j = 12
    0xbc5080ef8c4eea55ULL, 0x3fef8abdc06c31ccULL,  // j = 13
    0xbc91c923b9d5f416ULL, 0x3fef829aaea92de0ULL,  // j = 14
    0x3c80d3e3e95c55afULL, 0x3fef7a98c8a58e51ULL,  // j = 15
    0xbc801b15eaa59348ULL, 0x3fef72b83c7d517bULL,  // j = 16
    0xbc8f1ff055de323dULL, 0x3fef6af9388c8deaULL,  // j = 17
    0x3c8b898c3f1353bfULL, 0x3fef635beb6fcb75ULL,  // j = 18
    0xbc96d99c7611eb26ULL, 0x3fef5be084045cd4ULL,  // j = 19
    0x3c9aecf73e3a2f60ULL, 0x3fef54873168b9aaULL,  // j = 20
    0xbc8fe782cb86389dULL, 0x3fef4d5022fcd91dULL,  // j = 21
    0x3c8a6f4144a6c38dULL, 0x3fef463b88628cd6ULL,  // j = 22
    0x3c807a05b0e4047dULL, 0x3fef3f49917ddc96ULL,  // j = 23
    0x3c968efde3a8a894ULL, 0x3fef387a6e756238ULL,  // j = 24
    0x3c875e18f274487dULL, 0x3fef31ce4fb2a63fULL,  // j = 25
    0x3c80472b981fe7f2ULL, 0x3fef2b4565e27cddULL,  // j = 26
    0xbc96b87b3f71085eULL, 0x3fef24dfe1f56381ULL,  // j = 27
    0x3c82f7e16d09ab31ULL, 0x3fef1e9df51fdee1ULL,  // j = 28
    0xbc3d219b1a6fbffaULL, 0x3fef187fd0dad990ULL,  // j = 29
    0x3c8b3782720c0ab4ULL, 0x3fef1285a6e4030bULL,  // j = 30
    0x3c6e149289cecb8fULL, 0x3fef0cafa93e2f56ULL,  // j = 31
    0x3c834d754db0abb6ULL, 0x3fef06fe0a31b715ULL,  // j = 32
    0x3c864201e2ac744cULL, 0x3fef0170fc4cd831ULL,  // j = 33
    0x3c8fdd395dd3f84aULL, 0x3feefc08b26416ffULL,  // j = 34
    0xbc86a3803b8e5b04ULL, 0x3feef6c55f929ff1ULL,  // j = 35
    0xbc924aedcc4b5068ULL, 0x3feef1a7373aa9cbULL,  // j = 36
    0xbc9907f81b512d8eULL, 0x3feeecae6d05d866ULL,  // j = 37
    0xbc71d1e83e9436d2ULL, 0x3feee7db34e59ff7ULL,  // j = 38
    0xbc991919b3ce1b15ULL, 0x3feee32dc313a8e5ULL,  // j = 39
    0x3c859f48a72a4c6dULL, 0x3feedea64c123422ULL,  // j = 40
    0xbc9312607a28698aULL, 0x3feeda4504ac801cULL,  // j = 41
    0xbc58a78f4817895bULL, 0x3feed60a21f72e2aULL,  // j = 42
    0xbc7c2c9b67499a1bULL, 0x3feed1f5d950a897ULL,  // j = 43
    0x3c4363ed60c2ac11ULL, 0x3feece086061892dULL,  // j = 44
    0x3c9666093b0664efULL, 0x3feeca41ed1d0057ULL,  // j = 45
    0x3c6ecce1daa10379ULL, 0x3feec6a2b5c13cd0ULL,  // j = 46
    0x3c93ff8e3f0f1230ULL, 0x3feec32af0d7d3deULL,  // j = 47
    0x3c7690cebb7aafb0ULL, 0x3feebfdad5362a27ULL,  // j = 48
    0x3c931dbdeb54e077ULL, 0x3feebcb299fddd0dULL,  // j = 49
    0xbc8f94340071a38eULL, 0x3feeb9b2769d2ca7ULL,  // j = 50
    0xbc87deccdc93a349ULL, 0x3feeb6daa2cf6642ULL,  // j = 51
    0xbc78dec6bd0f385fULL, 0x3feeb42b569d4f82ULL,  // j = 52
    0xbc861246ec7b5cf6ULL, 0x3feeb1a4ca5d920fULL,  // j = 53
    0x3c93350518fdd78eULL, 0x3feeaf4736b527daULL,  // j = 54
    0x3c7b98b72f8a9b05ULL, 0x3feead12d497c7fdULL,  // j = 55
    0x3c9063e1e21c5409ULL, 0x3feeab07dd485429ULL,  // j = 56
    0x3c34c7855019c6eaULL, 0x3feea9268a5946b7ULL,  // j = 57
    0x3c9432e62b64c035ULL, 0x3feea76f15ad2148ULL,  // j = 58
    0xbc8ce44a6199769fULL, 0x3feea5e1b976dc09ULL,  // j = 59
    0xbc8c33c53bef4da8ULL, 0x3feea47eb03a5585ULL,  // j = 60
    0xbc845378892be9aeULL, 0x3feea34634ccc320ULL,  // j = 61
    0xbc93cedd78565858ULL, 0x3feea23882552225ULL,  // j = 62
    0x3c5710aa807e1964ULL, 0x3feea155d44ca973ULL,  // j = 63
    0xbc93b3efbf5e2228ULL, 0x3feea09e667f3bcdULL,  // j = 64
    0xbc6a12ad8734b982ULL, 0x3feea012750bdabfULL,  // j = 65
    0xbc6367efb86da9eeULL, 0x3fee9fb23c651a2fULL,  // j = 66
    0xbc80dc3d54e08851ULL, 0x3fee9f7df9519484ULL,  // j = 67
    0xbc781f647e5a3ecfULL, 0x3fee9f75e8ec5f74ULL,  // j = 68
    0xbc86ee4ac08b7db0ULL, 0x3fee9f9a48a58174ULL,  // j = 69
    0xbc8619321e55e68aULL, 0x3fee9feb564267c9ULL,  // j = 70
    0x3c909ccb5e09d4d3ULL, 0x3feea0694fde5d3fULL,  // j = 71
    0xbc7b32dcb94da51dULL, 0x3feea11473eb0187ULL,  // j = 72
    0x3c94ecfd5467c06bULL, 0x3feea1ed0130c132ULL,  // j = 73
    0x3c65ebe1abd66c55ULL, 0x3feea2f336cf4e62ULL,  // j = 74
    0xbc88a1c52fb3cf42ULL, 0x3feea427543e1a12ULL,  // j = 75
    0xbc9369b6f13b3734ULL, 0x3feea589994cce13ULL,  // j = 76
    0xbc805e843a19ff1eULL, 0x3feea71a4623c7adULL,  // j = 77
    0xbc94d450d872576eULL, 0x3feea8d99b4492edULL,  // j = 78
    0x3c90ad675b0e8a00ULL, 0x3feeaac7d98a6699ULL,  // j = 79
    0x3c8db72fc1f0eab4ULL, 0x3feeace5422aa0dbULL,  // j = 80
    0xbc65b6609cc5e7ffULL, 0x3feeaf3216b5448cULL,  // j = 81
    0x3c7bf68359f35f44ULL, 0x3feeb1ae99157736ULL,  // j = 82
    0xbc93091fa71e3d83ULL, 0x3feeb45b0b91ffc6ULL,  // j = 83
    0xbc5da9b88b6c1e29ULL, 0x3feeb737b0cdc5e5ULL,  // j = 84
    0xbc6c23f97c90b959ULL, 0x3feeba44cbc8520fULL,  // j = 85
    0xbc92434322f4f9aaULL, 0x3feebd829fde4e50ULL,  // j = 86
    0xbc85ca6cd7668e4bULL, 0x3feec0f170ca07baULL,  // j = 87
    0x3c71affc2b91ce27ULL, 0x3feec49182a3f090ULL,  // j = 88
    0x3c6dd235e10a73bbULL, 0x3feec86319e32323ULL,  // j = 89
    0xbc87c50422622263ULL, 0x3feecc667b5de565ULL,  // j = 90
    0x3c8b1c86e3e231d5ULL, 0x3feed09bec4a2d33ULL,  // j = 91
    0xbc91bbd1d3bcbb15ULL, 0x3feed503b23e255dULL,  // j = 92
    0x3c90cc319cee31d2ULL, 0x3feed99e1330b358ULL,  // j = 93
    0x3c8469846e735ab3ULL, 0x3feede6b5579fdbfULL,  // j = 94
    0xbc82dfcd978e9db4ULL, 0x3feee36bbfd3f37aULL,  // j = 95
    0x3c8c1a7792cb3387ULL, 0x3feee89f995ad3adULL,  // j = 96
    0xbc907b8f4ad1d9faULL, 0x3feeee07298db666ULL,  // j = 97
    0xbc55c3d956dcaebaULL, 0x3feef3a2b84f15fbULL,  // j = 98
    0xbc90a40e3da6f640ULL, 0x3feef9728de5593aULL,  // j = 99
    0xbc68d6f438ad9334ULL, 0x3feeff76f2fb5e47ULL,  // j = 100
    0xbc91eee26b588a35ULL, 0x3fef05b030a1064aULL,  // j = 101
    0x3c74ffd70a5fddcdULL, 0x3fef0c1e904bc1d2ULL,  // j = 102
    0xbc91bdfbfa9298acULL, 0x3fef12c25bd71e09ULL,  // j = 103
    0x3c736eae30af0cb3ULL, 0x3fef199bdd85529cULL,  // j = 104
    0x3c8ee3325c9ffd94ULL, 0x3fef20ab5fffd07aULL,  // j = 105
    0x3c84e08fd10959acULL, 0x3fef27f12e57d14bULL,  // j = 106
    0x3c63cdaf384e1a67ULL, 0x3fef2f6d9406e7b5ULL,  // j = 107
    0x3c676b2c6c921968ULL, 0x3fef3720dcef9069ULL,  // j = 108
    0xbc808a1883ccb5d2ULL, 0x3fef3f0b555dc3faULL,  // j = 109
    0xbc8fad5d3ffffa6fULL, 0x3fef472d4a07897cULL,  // j = 110
    0xbc900dae3875a949ULL, 0x3fef4f87080d89f2ULL,  // j = 111
    0x3c74a385a63d07a7ULL, 0x3fef5818dcfba487ULL,  // j = 112
    0xbc82919e2040220fULL, 0x3fef60e316c98398ULL,  // j = 113
    0x3c8e5a50d5c192acULL, 0x3fef69e603db3285ULL,  // j = 114
    0x3c843a59ac016b4bULL, 0x3fef7321f301b460ULL,  // j = 115
    0xbc82d52107b43e1fULL, 0x3fef7c97337b9b5fULL,  // j = 116
    0xbc892ab93b470dc9ULL, 0x3fef864614f5a129ULL,  // j = 117
    0x3c74b604603a88d3ULL, 0x3fef902ee78b3ff6ULL,  // j = 118
    0x3c83c5ec519d7271ULL, 0x3fef9a51fbc74c83ULL,  // j = 119
    0xbc8ff7128fd391f0ULL, 0x3fefa4afa2a490daULL,  // j = 120
    0xbc8dae98e223747dULL, 0x3fefaf482d8e67f1ULL,  // j = 121
    0x3c8ec3bc41aa2008ULL, 0x3fefba1bee615a27ULL,  // j = 122
    0x3c842b94c3a9eb32ULL, 0x3fefc52b376bba97ULL,  // j = 123
    0x3c8a64a931d185eeULL, 0x3fefd0765b6e4540ULL,  // j = 124
    0xbc8e37bae43be3edULL, 0x3fefdbfdad9cbe14ULL,  // j = 125
    0x3c77893b4d91cd9dULL, 0x3fefe7c1819e90d8ULL,  // j = 126
    0x3c5305c14160cc89ULL, 0x3feff3c22b8f71f1ULL,  // j = 127
};

}  // namespace exp_constants

namespace {

using namespace exp_constants;

/// Top 12 bits of `x` (sign and exponent).
[[nodiscard]] std::uint32_t top12(double x) noexcept {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52);
}

/// glibc's specialcase(): 512 <= |x| < 1024, where the scale 2^(k/N) may
/// leave the normal range. k > 0 scales by 2^1009 after the fused sum;
/// k < 0 rounds y once to double precision before scaling it into the
/// subnormal range (no double rounding), and never returns -0.
[[nodiscard]] double special_case(double tmp, std::uint64_t sbits,
                                  std::uint64_t ki) noexcept {
  if ((ki & 0x80000000U) == 0) {
    const double scale = std::bit_cast<double>(sbits - (1009ULL << 52));
    return 0x1p1009 * std::fma(scale, tmp, scale);
  }
  const double scale = std::bit_cast<double>(sbits + (1022ULL << 52));
  const double scale_tmp = scale * tmp;
  double y = scale + scale_tmp;
  if (y < 1.0) {
    double lo = scale - y + scale_tmp;
    const double hi = 1.0 + y;
    lo = 1.0 - hi + y + lo;
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0;  // det-ok: float-eq (-0 becomes +0, as in glibc)
  }
  return 0x1p-1022 * y;
}

}  // namespace

EXPLORA_DETMATH_FMA_CLONES double exp(double x) noexcept {
  std::uint32_t abstop = top12(x) & 0x7ffU;
  // One unsigned compare for |x| < 2^-54 or |x| >= 512 (and inf/NaN).
  if (abstop - top12(kExpVectorMin) >=
      top12(kExpVectorMax) - top12(kExpVectorMin)) {
    if (abstop < top12(kExpVectorMin)) return 1.0 + x;  // +-0 included
    if (abstop >= top12(1024.0)) {
      if (x == -std::numeric_limits<double>::infinity()) return 0.0;
      if (abstop >= top12(std::numeric_limits<double>::infinity())) {
        return 1.0 + x;  // +inf, NaN
      }
      // glibc's __math_uflow(0) / __math_oflow(0), without errno.
      return std::signbit(x) ? 0.0 : std::numeric_limits<double>::infinity();
    }
    abstop = 0;  // 512 <= |x| < 1024: special_case below
  }

  // x = k ln2/N + r with integer k (the low bits of kd + shift).
  const double shifted = std::fma(x, kInvLn2N, kShift);
  const auto ki = std::bit_cast<std::uint64_t>(shifted);
  const double kd = shifted - kShift;
  const double r = std::fma(kd, kNegLn2LoN, std::fma(kd, kNegLn2HiN, x));
  const std::uint64_t idx = 2 * (ki % kTableSize);
  const double tail = std::bit_cast<double>(kTable[idx]);
  const std::uint64_t sbits = kTable[idx + 1] + (ki << (52 - kTableBits));
  const double r2 = r * r;
  const double tmp = std::fma(r2 * r2, std::fma(r, kC5, kC4),
                              std::fma(std::fma(r, kC3, kC2), r2, tail + r));
  if (abstop == 0) return special_case(tmp, sbits, ki);
  const double scale = std::bit_cast<double>(sbits);
  return std::fma(scale, tmp, scale);
}

}  // namespace explora::detmath
