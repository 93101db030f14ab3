// Scalar port of glibc 2.36's log (see common/detmath.hpp for the
// contract): sysdeps/ieee754/dbl-64/e_log.c, the table-driven ARM
// optimized-routines algorithm, as the FMA variant the ifunc selects.
//
// Table path: x = 2^k z with z in [OFF, 2 OFF); subinterval i of that
// range has a centre c_i with 1/c_i and log(c_i) in the table, and
// log(x) = k ln2 + log(c_i) + log1p(r) with r = z/c_i - 1, |r| < 1/256.
// Near-1 path (1 - 2^-4 <= x < 1 + 0x1.09p-4): log1p(r), r = x - 1, as a
// degree-11 polynomial with r^2/2 split into an exact head and a tail.
// Compiled with -ffp-contract=off (root CMakeLists.txt): every fusion
// below is an explicit std::fma, and every other operation rounds alone.
#include "common/detmath.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace explora::detmath {

namespace log_constants {

alignas(64) const std::uint64_t kTable[2 * kTableSize] = {
    0x3ff734f0c3e0de9fULL, 0xbfd7cc7f79e69000ULL,  // i = 0
    0x3ff713786a2ce91fULL, 0xbfd76feec20d0000ULL,  // i = 1
    0x3ff6f26008fab5a0ULL, 0xbfd713e31351e000ULL,  // i = 2
    0x3ff6d1a61f138c7dULL, 0xbfd6b85b38287800ULL,  // i = 3
    0x3ff6b1490bc5b4d1ULL, 0xbfd65d5590807800ULL,  // i = 4
    0x3ff69147332f0cbaULL, 0xbfd602d076180000ULL,  // i = 5
    0x3ff6719f18224223ULL, 0xbfd5a8ca86909000ULL,  // i = 6
    0x3ff6524f99a51ed9ULL, 0xbfd54f4356035000ULL,  // i = 7
    0x3ff63356aa8f24c4ULL, 0xbfd4f637c36b4000ULL,  // i = 8
    0x3ff614b36b9ddc14ULL, 0xbfd49da7fda85000ULL,  // i = 9
    0x3ff5f66452c65c4cULL, 0xbfd445923989a800ULL,  // i = 10
    0x3ff5d867b5912c4fULL, 0xbfd3edf439b0b800ULL,  // i = 11
    0x3ff5babccb5b90deULL, 0xbfd396ce448f7000ULL,  // i = 12
    0x3ff59d61f2d91a78ULL, 0xbfd3401e17bda000ULL,  // i = 13
    0x3ff5805612465687ULL, 0xbfd2e9e2ef468000ULL,  // i = 14
    0x3ff56397cee76bd3ULL, 0xbfd2941b3830e000ULL,  // i = 15
    0x3ff54725e2a77f93ULL, 0xbfd23ec58cda8800ULL,  // i = 16
    0x3ff52aff42064583ULL, 0xbfd1e9e129279000ULL,  // i = 17
    0x3ff50f22dbb2bddfULL, 0xbfd1956d2b48f800ULL,  // i = 18
    0x3ff4f38f4734ded7ULL, 0xbfd141679ab9f800ULL,  // i = 19
    0x3ff4d843cfde2840ULL, 0xbfd0edd094ef9800ULL,  // i = 20
    0x3ff4bd3ec078a3c8ULL, 0xbfd09aa518db1000ULL,  // i = 21
    0x3ff4a27fc3e0258aULL, 0xbfd047e65263b800ULL,  // i = 22
    0x3ff4880524d48434ULL, 0xbfcfeb224586f000ULL,  // i = 23
    0x3ff46dce1b192d0bULL, 0xbfcf474a7517b000ULL,  // i = 24
    0x3ff453d9d3391854ULL, 0xbfcea4443d103000ULL,  // i = 25
    0x3ff43a2744b4845aULL, 0xbfce020d44e9b000ULL,  // i = 26
    0x3ff420b54115f8fbULL, 0xbfcd60a22977f000ULL,  // i = 27
    0x3ff40782da3ef4b1ULL, 0xbfccc00104959000ULL,  // i = 28
    0x3ff3ee8f5d57fe8fULL, 0xbfcc202956891000ULL,  // i = 29
    0x3ff3d5d9a00b4ce9ULL, 0xbfcb81178d811000ULL,  // i = 30
    0x3ff3bd60c010c12bULL, 0xbfcae2c9ccd3d000ULL,  // i = 31
    0x3ff3a5242b75dab8ULL, 0xbfca45402e129000ULL,  // i = 32
    0x3ff38d22cd9fd002ULL, 0xbfc9a877681df000ULL,  // i = 33
    0x3ff3755bc5847a1cULL, 0xbfc90c6d69483000ULL,  // i = 34
    0x3ff35dce49ad36e2ULL, 0xbfc87120a645c000ULL,  // i = 35
    0x3ff34679984dd440ULL, 0xbfc7d68fb4143000ULL,  // i = 36
    0x3ff32f5cceffcb24ULL, 0xbfc73cb83c627000ULL,  // i = 37
    0x3ff3187775a10d49ULL, 0xbfc6a39a9b376000ULL,  // i = 38
    0x3ff301c8373e3990ULL, 0xbfc60b3154b7a000ULL,  // i = 39
    0x3ff2eb4ebb95f841ULL, 0xbfc5737d76243000ULL,  // i = 40
    0x3ff2d50a0219a9d1ULL, 0xbfc4dc7b8fc23000ULL,  // i = 41
    0x3ff2bef9a8b7fd2aULL, 0xbfc4462c51d20000ULL,  // i = 42
    0x3ff2a91c7a0c1babULL, 0xbfc3b08abc830000ULL,  // i = 43
    0x3ff293726014b530ULL, 0xbfc31b996b490000ULL,  // i = 44
    0x3ff27dfa5757a1f5ULL, 0xbfc2875490a44000ULL,  // i = 45
    0x3ff268b39b1d3bbfULL, 0xbfc1f3b9f879a000ULL,  // i = 46
    0x3ff2539d838ff5bdULL, 0xbfc160c8252ca000ULL,  // i = 47
    0x3ff23eb7aac9083bULL, 0xbfc0ce7f57f72000ULL,  // i = 48
    0x3ff22a012ba940b6ULL, 0xbfc03cdc49fea000ULL,  // i = 49
    0x3ff2157996cc4132ULL, 0xbfbf57bdbc4b8000ULL,  // i = 50
    0x3ff201201dd2fc9bULL, 0xbfbe370896404000ULL,  // i = 51
    0x3ff1ecf4494d480bULL, 0xbfbd17983ef94000ULL,  // i = 52
    0x3ff1d8f5528f6569ULL, 0xbfbbf9674ed8a000ULL,  // i = 53
    0x3ff1c52311577e7cULL, 0xbfbadc79202f6000ULL,  // i = 54
    0x3ff1b17c74cb26e9ULL, 0xbfb9c0c3e7288000ULL,  // i = 55
    0x3ff19e010c2c1ab6ULL, 0xbfb8a646b372c000ULL,  // i = 56
    0x3ff18ab07bb670bdULL, 0xbfb78d01b3ac0000ULL,  // i = 57
    0x3ff1778a25efbcb6ULL, 0xbfb674f145380000ULL,  // i = 58
    0x3ff1648d354c31daULL, 0xbfb55e0e6d878000ULL,  // i = 59
    0x3ff151b990275fddULL, 0xbfb4485cdea1e000ULL,  // i = 60
    0x3ff13f0ea432d24cULL, 0xbfb333d94d6aa000ULL,  // i = 61
    0x3ff12c8b7210f9daULL, 0xbfb22079f8c56000ULL,  // i = 62
    0x3ff11a3028ecb531ULL, 0xbfb10e4698622000ULL,  // i = 63
    0x3ff107fbda8434afULL, 0xbfaffa6c6ad20000ULL,  // i = 64
    0x3ff0f5ee0f4e6bb3ULL, 0xbfadda8d4a774000ULL,  // i = 65
    0x3ff0e4065d2a9fceULL, 0xbfabbcece4850000ULL,  // i = 66
    0x3ff0d244632ca521ULL, 0xbfa9a1894012c000ULL,  // i = 67
    0x3ff0c0a77ce2981aULL, 0xbfa788583302c000ULL,  // i = 68
    0x3ff0af2f83c636d1ULL, 0xbfa5715e67d68000ULL,  // i = 69
    0x3ff09ddb98a01339ULL, 0xbfa35c8a49658000ULL,  // i = 70
    0x3ff08cabaf52e7dfULL, 0xbfa149e364154000ULL,  // i = 71
    0x3ff07b9f2f4e28fbULL, 0xbf9e72c082eb8000ULL,  // i = 72
    0x3ff06ab58c358f19ULL, 0xbf9a55f152528000ULL,  // i = 73
    0x3ff059eea5ecf92cULL, 0xbf963d62cf818000ULL,  // i = 74
    0x3ff04949cdd12c90ULL, 0xbf9228fb8caa0000ULL,  // i = 75
    0x3ff038c6c6f0ada9ULL, 0xbf8c317b20f90000ULL,  // i = 76
    0x3ff02865137932a9ULL, 0xbf8419355daa0000ULL,  // i = 77
    0x3ff0182427ea7348ULL, 0xbf781203c2ec0000ULL,  // i = 78
    0x3ff008040614b195ULL, 0xbf60040979240000ULL,  // i = 79
    0x3fefe01ff726fa1aULL, 0x3f6feff384900000ULL,  // i = 80
    0x3fefa11cc261ea74ULL, 0x3f87dc41353d0000ULL,  // i = 81
    0x3fef6310b081992eULL, 0x3f93cea3c4c28000ULL,  // i = 82
    0x3fef25f63ceeadcdULL, 0x3f9b9fc114890000ULL,  // i = 83
    0x3feee9c8039113e7ULL, 0x3fa1b0d8ce110000ULL,  // i = 84
    0x3feeae8078cbb1abULL, 0x3fa58a5bd001c000ULL,  // i = 85
    0x3fee741aa29d0c9bULL, 0x3fa95c8340d88000ULL,  // i = 86
    0x3fee3a91830a99b5ULL, 0x3fad276aef578000ULL,  // i = 87
    0x3fee01e009609a56ULL, 0x3fb07598e598c000ULL,  // i = 88
    0x3fedca01e577bb98ULL, 0x3fb253f5e30d2000ULL,  // i = 89
    0x3fed92f20b7c9103ULL, 0x3fb42edd8b380000ULL,  // i = 90
    0x3fed5cac66fb5cceULL, 0x3fb606598757c000ULL,  // i = 91
    0x3fed272caa5ede9dULL, 0x3fb7da76356a0000ULL,  // i = 92
    0x3fecf26e3e6b2ccdULL, 0x3fb9ab434e1c6000ULL,  // i = 93
    0x3fecbe6da2a77902ULL, 0x3fbb78c7bb0d6000ULL,  // i = 94
    0x3fec8b266d37086dULL, 0x3fbd431332e72000ULL,  // i = 95
    0x3fec5894bd5d5804ULL, 0x3fbf0a3171de6000ULL,  // i = 96
    0x3fec26b533bb9f8cULL, 0x3fc067152b914000ULL,  // i = 97
    0x3febf583eeece73fULL, 0x3fc147858292b000ULL,  // i = 98
    0x3febc4fd75db96c1ULL, 0x3fc2266ecdca3000ULL,  // i = 99
    0x3feb951e0c864a28ULL, 0x3fc303d7a6c55000ULL,  // i = 100
    0x3feb65e2c5ef3e2cULL, 0x3fc3dfc33c331000ULL,  // i = 101
    0x3feb374867c9888bULL, 0x3fc4ba366b7a8000ULL,  // i = 102
    0x3feb094b211d304aULL, 0x3fc5933928d1f000ULL,  // i = 103
    0x3feadbe885f2ef7eULL, 0x3fc66acd2418f000ULL,  // i = 104
    0x3feaaf1d31603da2ULL, 0x3fc740f8ec669000ULL,  // i = 105
    0x3fea82e63fd358a7ULL, 0x3fc815c0f51af000ULL,  // i = 106
    0x3fea5740ef09738bULL, 0x3fc8e92954f68000ULL,  // i = 107
    0x3fea2c2a90ab4b27ULL, 0x3fc9bb3602f84000ULL,  // i = 108
    0x3fea01a01393f2d1ULL, 0x3fca8bed1c2c0000ULL,  // i = 109
    0x3fe9d79f24db3c1bULL, 0x3fcb5b515c01d000ULL,  // i = 110
    0x3fe9ae2505c7b190ULL, 0x3fcc2967ccbcc000ULL,  // i = 111
    0x3fe9852ef297ce2fULL, 0x3fccf635d5486000ULL,  // i = 112
    0x3fe95cbaeea44b75ULL, 0x3fcdc1bd3446c000ULL,  // i = 113
    0x3fe934c69de74838ULL, 0x3fce8c01b8cfe000ULL,  // i = 114
    0x3fe90d4f2f6752e6ULL, 0x3fcf5509c0179000ULL,  // i = 115
    0x3fe8e6528effd79dULL, 0x3fd00e6c121fb800ULL,  // i = 116
    0x3fe8bfce9fcc007cULL, 0x3fd071b80e93d000ULL,  // i = 117
    0x3fe899c0dabec30eULL, 0x3fd0d46b9e867000ULL,  // i = 118
    0x3fe87427aa2317fbULL, 0x3fd13687334bd000ULL,  // i = 119
    0x3fe84f00acb39a08ULL, 0x3fd1980d67234800ULL,  // i = 120
    0x3fe82a49e8653e55ULL, 0x3fd1f8ffe0cc8000ULL,  // i = 121
    0x3fe8060195f40260ULL, 0x3fd2595fd7636800ULL,  // i = 122
    0x3fe7e22563e0a329ULL, 0x3fd2b9300914a800ULL,  // i = 123
    0x3fe7beb377dcb5adULL, 0x3fd3187210436000ULL,  // i = 124
    0x3fe79baa679725c2ULL, 0x3fd377266dec1800ULL,  // i = 125
    0x3fe77907f2170657ULL, 0x3fd3d54ffbaf3000ULL,  // i = 126
    0x3fe756cadbd6130cULL, 0x3fd432eee32fe000ULL,  // i = 127
};

}  // namespace log_constants

namespace {

using namespace log_constants;

/// log(x) for 1 - 2^-4 <= x < 1 + 0x1.09p-4, x != 1. Always inlined, so
/// that it runs in log()'s FMA clone.
[[nodiscard, gnu::always_inline]] inline double log_near_one(
    double x) noexcept {
  const double r = x - 1.0;
  const double r2 = r * r;
  const double r3 = r * r2;
  const double inner3 =
      std::fma(r3, kB[10], std::fma(r2, kB[9], std::fma(r, kB[8], kB[7])));
  const double inner2 =
      std::fma(r3, inner3, std::fma(r2, kB[6], std::fma(r, kB[5], kB[4])));
  const double poly =
      std::fma(r3, inner2, std::fma(r2, kB[3], std::fma(r, kB[2], kB[1])));
  // r^2 B0 = -r^2/2 in two parts: rhi has 26 significant bits, so
  // rhi * rhi is exact. glibc fuses w = r 2^27 into r + w.
  const double r_plus_w = std::fma(r, 0x1p27, r);
  const double rhi = std::fma(-0x1p27, r, r_plus_w);
  const double rlo = r - rhi;
  const double rhi2 = rhi * rhi;
  const double hi = std::fma(rhi2, kB[0], r);
  double lo = std::fma(rhi2, kB[0], r - hi);
  lo = std::fma(kB[0] * rlo, rhi + r, lo);
  return hi + std::fma(poly, r3, lo);
}

}  // namespace

EXPLORA_DETMATH_FMA_CLONES double log(double x) noexcept {
  std::uint64_t ix = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kLo = std::bit_cast<std::uint64_t>(kNearOneMin);
  constexpr std::uint64_t kHi = std::bit_cast<std::uint64_t>(kNearOneMax);
  if (ix - kLo < kHi - kLo) {
    if (ix == std::bit_cast<std::uint64_t>(1.0)) return 0.0;
    return log_near_one(x);
  }
  const auto top = static_cast<std::uint32_t>(ix >> 48);
  if (top - 0x0010U >= 0x7ff0U - 0x0010U) {
    // x < 2^-1022, inf or NaN.
    if (ix * 2 == 0) return -std::numeric_limits<double>::infinity();
    if (ix == std::bit_cast<std::uint64_t>(
                  std::numeric_limits<double>::infinity())) {
      return x;
    }
    if ((top & 0x8000U) != 0 || (top & 0x7ff0U) == 0x7ff0U) {
      return (x - x) / (x - x);  // glibc's __math_invalid, without errno
    }
    // Subnormal: normalize.
    ix = std::bit_cast<std::uint64_t>(x * 0x1p52) - (52ULL << 52);
  }

  const std::uint64_t tmp = ix - kOff;
  const std::uint64_t i = (tmp >> (52 - kTableBits)) % kTableSize;
  const auto k = static_cast<std::int64_t>(tmp) >> 52;  // arithmetic shift
  const std::uint64_t iz = ix - (tmp & (0xfffULL << 52));
  const double invc = std::bit_cast<double>(kTable[2 * i]);
  const double logc = std::bit_cast<double>(kTable[2 * i + 1]);
  const double z = std::bit_cast<double>(iz);
  const double r = std::fma(z, invc, -1.0);
  const auto kd = static_cast<double>(k);
  const double w = std::fma(kd, kLn2Hi, logc);
  const double hi = w + r;
  const double lo = std::fma(kd, kLn2Lo, (w - hi) + r);
  const double r2 = r * r;
  const double poly = std::fma(r2, std::fma(r, kA[4], kA[3]),
                               std::fma(r, kA[2], kA[1]));
  return std::fma(r * r2, poly, std::fma(r2, kA[0], lo)) + hi;
}

}  // namespace explora::detmath
