// The repo's one tanh (common/detmath.hpp): its bits over a seeded sweep are
// pinned by a committed digest, every GEMM backend's tanh epilogue must be
// byte-identical to the scalar port, its error against tanhl is bounded,
// and the special cases keep fdlibm's semantics.
#include "common/detmath.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "common/aligned.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "ml/gemm.hpp"

namespace explora {
namespace {


/// Seeded inputs: 8192 uniform mantissas in every binade [2^e, 2^(e+1))
/// for e = -60..5 and both signs (1,081,344 values), then the 64
/// neighbours on each side of every branch edge, both signs: |x| = 2^-55,
/// 1 and 22, |2x| at expm1's 0.5 ln2 and 1.5 ln2 reduction edges, and the
/// |x| where expm1's k reaches 20 and passes 56.
std::vector<double> sweep() {
  using namespace detmath::tanh_constants;
  common::Rng rng(0x7a4e);
  std::vector<double> xs;
  for (int e = -60; e <= 5; ++e) {
    for (const double sign : {1.0, -1.0}) {
      for (int i = 0; i < 8192; ++i) {
        const double mantissa =
            std::bit_cast<double>(0x3ff0000000000000ULL | (rng() >> 12));
        xs.push_back(sign * std::ldexp(mantissa, e));
      }
    }
  }
  const double ln2 = std::numbers::ln2;
  for (const double edge :
       {kTanhVectorMin, 1.0, kTanhVectorMax, kHalfLn2Edge / 2,
        kThreeHalvesLn2Edge / 2, 19.5 * ln2 / 2, 56.5 * ln2 / 2}) {
    const auto bits = std::bit_cast<std::int64_t>(edge);
    for (std::int64_t step = -64; step <= 64; ++step) {
      const double x = std::bit_cast<double>(bits + step);
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  return xs;
}

std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t digest = common::kFnvBasis;
  for (const double v : values) {
    common::fnv1a_word(digest, std::bit_cast<std::uint64_t>(v));
  }
  return digest;
}

/// FNV-1a over the result bytes of tanh on sweep(), generated once by
/// hashing std::tanh of glibc 2.36 (x86-64, FMA variant) in place of
/// detmath::tanh below — the libm the golden traces were recorded with.
constexpr std::uint64_t kSweepDigest = 0x5590b6fa6864f400ULL;

TEST(Tanh, SweepBitsMatchPinnedDigest) {
  const auto xs = sweep();
  ASSERT_GE(xs.size(), std::size_t{1} << 20);
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (const double x : xs) ys.push_back(detmath::tanh(x));
  EXPECT_EQ(fnv1a(ys), kSweepDigest);
}

// Every backend's kBiasTanh epilogue, fed the sweep through the bias (w
// and x are zero, so acc + bias is the bias itself), must reproduce the
// scalar port byte for byte: full panels where vector lanes and scalar
// fallback lanes mix (the sweep is shuffled), a 4-lane tail panel, and
// both the batch-tile and single-row paths.
TEST(Tanh, EveryBackendEpilogueMatchesScalarPort) {
  auto values = sweep();
  common::Rng rng(0x51);
  rng.shuffle(values);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double special : {inf, -inf, std::nan(""), 30.0, -1e300,
                               1e-310, -0x1p-60, 0.0}) {
    values.push_back(special);
  }

  constexpr std::size_t kOut = 1020;  // 127 full panels + a 4-lane tail
  constexpr std::size_t kBatch = 9;   // one 8-row tile, then single rows
  const common::AlignedVector<double> panels(
      ml::gemm::panel_size(kOut, 1), 0.0);
  const std::vector<double> x(kBatch, 0.0);
  std::vector<double> bias(kOut);
  std::vector<double> expected(kOut);
  std::vector<double> y(kBatch * kOut);
  for (const auto backend :
       {ml::gemm::Backend::kScalar, ml::gemm::Backend::kAvx2,
        ml::gemm::Backend::kAvx512}) {
    ml::gemm::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(ml::gemm::to_string(backend));
    for (std::size_t first = 0; first < values.size(); first += kOut) {
      for (std::size_t r = 0; r < kOut; ++r) {
        bias[r] = values[(first + r) % values.size()];
        expected[r] = detmath::tanh(0.0 + bias[r]);
      }
      ml::gemm::run({panels.data(), kOut, 1}, x.data(), kBatch, y.data(),
                    bias.data(), ml::gemm::Epilogue::kBiasTanh);
      for (std::size_t b = 0; b < kBatch; ++b) {
        ASSERT_EQ(0, std::memcmp(y.data() + b * kOut, expected.data(),
                                 kOut * sizeof(double)))
            << "chunk at " << first << ", row " << b;
      }
    }
  }
}

TEST(Tanh, WithinThreeUlpOfTanhl) {
  if (std::numeric_limits<long double>::digits <=
      std::numeric_limits<double>::digits) {
    GTEST_SKIP() << "long double is no wider than double here";
  }
  long double worst = 0.0L;
  for (const double x : sweep()) {
    const long double reference = std::tanh(static_cast<long double>(x));
    const long double ulp = std::ldexp(
        1.0L, std::ilogb(static_cast<double>(reference)) -
                  (std::numeric_limits<double>::digits - 1));
    const long double error =
        std::fabs(static_cast<long double>(detmath::tanh(x)) - reference) / ulp;
    if (error > worst) worst = error;
  }
  RecordProperty("max_ulp", std::to_string(static_cast<double>(worst)));
  EXPECT_LE(worst, 3.0L);
}

TEST(Tanh, SpecialCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(detmath::tanh(0.0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(detmath::tanh(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(detmath::tanh(inf), 1.0);
  EXPECT_EQ(detmath::tanh(-inf), -1.0);
  for (const double big : {22.0, 22.5, 700.0, 1e300,
                           std::numeric_limits<double>::max()}) {
    EXPECT_EQ(detmath::tanh(big), 1.0) << big;
    EXPECT_EQ(detmath::tanh(-big), -1.0) << big;
  }
  EXPECT_TRUE(std::isnan(detmath::tanh(std::nan(""))));
  EXPECT_TRUE(std::isnan(detmath::tanh(-std::nan(""))));
  for (const double tiny : {0x1.fffffffffffffp-56, 0x1p-60, 1e-300,
                            std::numeric_limits<double>::min(), 1e-310,
                            std::numeric_limits<double>::denorm_min()}) {
    for (const double x : {tiny, -tiny}) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(detmath::tanh(x)),
                std::bit_cast<std::uint64_t>(x * (1.0 + x)))
          << x;
    }
  }
}

}  // namespace
}  // namespace explora
