// The repo's log and sincos (common/detmath.hpp): their bits over seeded
// sweeps are pinned by committed digests generated from glibc 2.36, every
// backend's lanes must be identical to the scalar ports, and the special
// cases keep glibc's results. The sweeps cover Box-Muller's own inputs,
// every binade, the near-1 log path and each branch edge of sincos.
#include "common/detmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"

namespace explora {
namespace {

constexpr detmath::Backend kBackends[] = {detmath::Backend::kScalar,
                                          detmath::Backend::kAvx2,
                                          detmath::Backend::kAvx512};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// `per_binade` mantissas drawn uniformly in every binade [2^e, 2^(e+1)) for
/// e = -1074..1023, subnormal binades included.
void every_binade(common::Rng& rng, int per_binade, std::vector<double>& xs) {
  for (int e = -1074; e <= 1023; ++e) {
    for (int i = 0; i < per_binade; ++i) {
      const std::uint64_t mantissa = rng() >> 12;
      if (e < -1022) {  // subnormal: bit (e + 1074) is the leading one
        const int lead = e + 1074;
        const std::uint64_t low =
            lead == 0 ? 0 : mantissa >> (52 - lead);
        xs.push_back(std::bit_cast<double>((std::uint64_t{1} << lead) | low));
      } else {
        xs.push_back(std::bit_cast<double>(
            (static_cast<std::uint64_t>(e + 1023) << 52) | mantissa));
      }
    }
  }
}

/// The 64 neighbours on each side of `edge`, and the edge itself.
void around(double edge, std::vector<double>& xs) {
  const auto b = std::bit_cast<std::int64_t>(edge);
  for (std::int64_t step = -64; step <= 64; ++step) {
    xs.push_back(std::bit_cast<double>(b + step));
  }
}

/// Seeded log inputs (1,738,244 values): 2^19 points of Box-Muller's grid
/// k 2^-53, the 4096 smallest and largest grid points, 512 mantissas in
/// every binade, 2^17 uniform around the near-1 window, and the
/// neighbours of its edges, of 1 and of the smallest normal.
std::vector<double> log_sweep() {
  common::Rng rng(0x106);
  std::vector<double> xs;
  for (int i = 0; i < (1 << 19); ++i) xs.push_back(rng.uniform());
  for (std::uint64_t k = 1; k <= 4096; ++k) {
    xs.push_back(static_cast<double>(k) * 0x1p-53);
    xs.push_back(static_cast<double>((std::uint64_t{1} << 53) - k) * 0x1p-53);
  }
  every_binade(rng, 512, xs);
  for (int i = 0; i < (1 << 17); ++i) xs.push_back(rng.uniform(0.93, 1.07));
  for (const double edge : {detmath::log_constants::kNearOneMin,
                            detmath::log_constants::kNearOneMax, 1.0,
                            detmath::log_constants::kLogVectorMin}) {
    around(edge, xs);
  }
  return xs;
}

/// Seeded sincos inputs (1,324,810 values): 2^19 Box-Muller angles
/// 2 pi k 2^-53, 2^18 uniform in [-10, 10], 128 mantissas in every binade
/// of both signs, and the neighbours of each branch edge (2^-27,
/// 0.855469, 2.426265, 105414350 and TAYLOR_SIN's 0.126), both signs.
std::vector<double> sincos_sweep() {
  common::Rng rng(0x51c);
  std::vector<double> xs;
  for (int i = 0; i < (1 << 19); ++i) {
    xs.push_back(2.0 * std::numbers::pi * rng.uniform());
  }
  for (int i = 0; i < (1 << 18); ++i) xs.push_back(rng.uniform(-10.0, 10.0));
  std::vector<double> binades;
  every_binade(rng, 128, binades);
  for (const double x : binades) {
    xs.push_back(x);
    xs.push_back(-x);
  }
  using namespace detmath::sincos_constants;
  for (const double edge :
       {kTinyMax, kSmallMax, kMidMax, kReduceMax, kTaylorMax}) {
    around(edge, xs);
    around(-edge, xs);
  }
  return xs;
}

std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h = common::kFnvBasis;
  for (const double v : values) common::fnv1a_word(h, bits(v));
  return h;
}

/// FNV-1a over the results of log on log_sweep() and of sincos (sin then
/// cos per input) on sincos_sweep(), generated once by hashing glibc 2.36's
/// log and sincos (x86-64, FMA variants) in place of the ports below.
constexpr std::uint64_t kLogSweepDigest = 0x043a72ed53fd2e34ULL;
constexpr std::uint64_t kSinCosSweepDigest = 0x679a71cdd43207cdULL;

TEST(Log, SweepBitsMatchPinnedDigest) {
  const auto xs = log_sweep();
  ASSERT_GE(xs.size(), std::size_t{1000000});
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (const double x : xs) ys.push_back(detmath::log(x));
  EXPECT_EQ(digest(ys), kLogSweepDigest);
}

TEST(SinCos, SweepBitsMatchPinnedDigest) {
  const auto xs = sincos_sweep();
  ASSERT_GE(xs.size(), std::size_t{1000000});
  std::vector<double> ys;
  ys.reserve(2 * xs.size());
  for (const double x : xs) {
    const detmath::SinCos sc = detmath::sincos(x);
    ys.push_back(sc.sin);
    ys.push_back(sc.cos);
  }
  EXPECT_EQ(digest(ys), kSinCosSweepDigest);
}

const double kInf = std::numeric_limits<double>::infinity();

/// Inputs outside every lane range, mixed into the backend sweeps.
constexpr double kSpecials[] = {0.0, -0.0, 1e-310, -1.0, 1e300, -1e300,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};

// log_array on every backend reproduces the scalar port byte for byte: the
// sweep is shuffled so table, near-1 and fallback lanes mix within a
// register, and the odd length leaves a padded tail.
TEST(Log, EveryBackendLanesMatchScalarPort) {
  auto xs = log_sweep();
  common::Rng rng(0x52);
  rng.shuffle(xs);
  xs.insert(xs.end(), std::begin(kSpecials), std::end(kSpecials));
  ASSERT_NE(xs.size() % 8, 0U);
  std::vector<double> expected(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    expected[i] = detmath::log(xs[i]);
  }
  std::vector<double> ys(xs.size());
  for (const auto backend : kBackends) {
    detmath::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(detmath::to_string(backend));
    std::fill(ys.begin(), ys.end(), 0.0);
    detmath::log_array(xs.data(), ys.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(bits(ys[i]), bits(expected[i])) << "x = " << xs[i];
    }
  }
}

// log_sincos_array on every backend reproduces both scalar ports byte for
// byte: each sweep is shuffled so every branch's lanes and the fallback
// lanes mix within a register, and runs against the other, cut to its
// length, with a padded tail.
TEST(SinCos, EveryBackendLanesMatchScalarPorts) {
  auto xs = log_sweep();
  auto as = sincos_sweep();
  common::Rng rng(0x53);
  rng.shuffle(xs);
  rng.shuffle(as);
  as.insert(as.end(), std::begin(kSpecials), std::end(kSpecials));
  ASSERT_GE(xs.size(), as.size());
  xs.resize(as.size());
  ASSERT_NE(as.size() % 8, 0U);
  const std::size_t n = as.size();
  std::vector<double> log_x(n);
  std::vector<double> s(n);
  std::vector<double> c(n);
  for (const auto backend : kBackends) {
    detmath::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(detmath::to_string(backend));
    detmath::log_sincos_array(xs.data(), as.data(), log_x.data(), s.data(),
                              c.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const detmath::SinCos expected = detmath::sincos(as[i]);
      ASSERT_EQ(bits(log_x[i]), bits(detmath::log(xs[i]))) << xs[i];
      ASSERT_EQ(bits(s[i]), bits(expected.sin)) << "a = " << as[i];
      ASSERT_EQ(bits(c[i]), bits(expected.cos)) << "a = " << as[i];
    }
  }
}

TEST(Log, SpecialCases) {
  EXPECT_EQ(bits(detmath::log(1.0)), bits(0.0));
  EXPECT_EQ(detmath::log(0.0), -kInf);
  EXPECT_EQ(detmath::log(-0.0), -kInf);
  EXPECT_EQ(detmath::log(kInf), kInf);
  EXPECT_TRUE(std::isnan(detmath::log(-1.0)));
  EXPECT_TRUE(std::isnan(detmath::log(-kInf)));
  EXPECT_TRUE(std::isnan(detmath::log(std::nan(""))));
  // Pinned from glibc 2.36: the smallest subnormal, the smallest normal,
  // the largest double, and the extremes of Box-Muller's grid.
  EXPECT_EQ(bits(detmath::log(0x1p-1074)), 0xc0874385446d71c3ULL);
  EXPECT_EQ(bits(detmath::log(0x1p-1022)), 0xc086232bdd7abcd2ULL);
  EXPECT_EQ(bits(detmath::log(std::numeric_limits<double>::max())),
            0x40862e42fefa39efULL);
  EXPECT_EQ(bits(detmath::log(0x1p-53)), 0xc0425e4f7b2737faULL);
  EXPECT_EQ(bits(detmath::log(1.0 - 0x1p-53)), 0xbca0000000000000ULL);
}

TEST(SinCos, SpecialCases) {
  for (const double zero : {0.0, -0.0}) {
    const detmath::SinCos sc = detmath::sincos(zero);
    EXPECT_EQ(bits(sc.sin), bits(zero));
    EXPECT_EQ(bits(sc.cos), bits(1.0));
  }
  const detmath::SinCos tiny = detmath::sincos(-0x1p-30);
  EXPECT_EQ(bits(tiny.sin), bits(-0x1p-30));
  EXPECT_EQ(bits(tiny.cos), bits(1.0));
  for (const double x : {kInf, -kInf, std::nan("")}) {
    const detmath::SinCos sc = detmath::sincos(x);
    EXPECT_TRUE(std::isnan(sc.sin));
    EXPECT_TRUE(std::isnan(sc.cos));
  }
  // Pinned from glibc 2.36: pi, pi/2 and one argument past 105414350,
  // which glibc reduces with __branred.
  const detmath::SinCos pi = detmath::sincos(std::numbers::pi);
  EXPECT_EQ(bits(pi.sin), 0x3ca1a62633145c07ULL);
  EXPECT_EQ(bits(pi.cos), bits(-1.0));
  const detmath::SinCos half_pi = detmath::sincos(std::numbers::pi / 2);
  EXPECT_EQ(bits(half_pi.sin), bits(1.0));
  EXPECT_EQ(bits(half_pi.cos), 0x3c91a62633145c07ULL);
  const detmath::SinCos huge = detmath::sincos(1e22);
  EXPECT_EQ(bits(huge.sin), 0xbfeb453ab76bf397ULL);
  EXPECT_EQ(bits(huge.cos), 0x3fe0be2cef01c8f4ULL);
}

}  // namespace
}  // namespace explora
