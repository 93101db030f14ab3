// Unit tests for the deterministic RNG (common/rng).
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/detmath.hpp"

namespace explora::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng rng(0);
  // The all-zero state is the only invalid xoshiro state; seeding via
  // SplitMix64 must avoid it and produce non-constant output.
  std::set<std::uint64_t> values;
  for (int i = 0; i < 16; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 1u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all 6 values hit
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

/// Runs `rounds` batched draws over changing subsets of `count` streams,
/// half of them starting with a cached normal, and checks each output
/// against the same draw made one at a time on a twin stream.
template <typename Batch, typename Scalar>
void expect_batched_matches_scalar(Batch batch, Scalar scalar) {
  constexpr std::size_t kStreams = 19;  // more than one 16-stream chunk
  for (const auto backend :
       {detmath::Backend::kScalar, detmath::Backend::kAvx2,
        detmath::Backend::kAvx512}) {
    detmath::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(detmath::to_string(backend));
    std::vector<Rng> batched;
    std::vector<Rng> twins;
    for (std::size_t i = 0; i < kStreams; ++i) {
      batched.emplace_back(0xb00 + i);
      twins.emplace_back(0xb00 + i);
      if (i % 2 == 1) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batched.back().normal()),
                  std::bit_cast<std::uint64_t>(twins.back().normal()));
      }
    }
    for (std::size_t round = 0; round < 300; ++round) {
      std::vector<Rng*> streams;
      std::vector<std::size_t> ids;
      for (std::size_t i = 0; i < kStreams; ++i) {
        if ((round + i) % 5 == 0) continue;  // sits this round out
        streams.push_back(&batched[i]);
        ids.push_back(i);
      }
      std::vector<double> out(streams.size());
      batch(streams, out);
      for (std::size_t j = 0; j < ids.size(); ++j) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                  std::bit_cast<std::uint64_t>(scalar(twins[ids[j]])))
            << "round " << round << ", stream " << ids[j];
      }
    }
  }
}

TEST(Rng, BatchedNormalsMatchScalarDraws) {
  expect_batched_matches_scalar(
      [](std::span<Rng* const> streams, std::span<double> out) {
        Rng::normals(streams, out);
      },
      [](Rng& rng) { return rng.normal(); });
}

TEST(Rng, BatchedExponentialsMatchScalarDraws) {
  expect_batched_matches_scalar(
      [](std::span<Rng* const> streams, std::span<double> out) {
        Rng::exponentials(streams, out);
      },
      [](Rng& rng) { return rng.exponential(1.0); });
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(7), 7u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> data{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = data;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, data);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking twice with different tags from identically seeded parents
  // yields distinct streams.
  Rng parent_a(99);
  Rng parent_b(99);
  Rng child_a = parent_a.fork(1);
  Rng child_b = parent_b.fork(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (child_a() == child_b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, StringForkMatchesAcrossRuns) {
  Rng a(5);
  Rng b(5);
  Rng child_a = a.fork("traffic");
  Rng child_b = b.fork("traffic");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child_a(), child_b());
}

// Property sweep: Poisson sample mean tracks the requested mean across both
// the Knuth (< 64) and normal-approximation (>= 64) regimes.
class RngPoissonSweep : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonSweep, SampleMeanTracksMean) {
  const double mean = GetParam();
  Rng rng(61);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.poisson(mean);
  EXPECT_NEAR(sum / n, mean, std::max(0.05, mean * 0.05));
}

INSTANTIATE_TEST_SUITE_P(Means, RngPoissonSweep,
                         ::testing::Values(0.01, 0.1, 0.5, 1.0, 5.0, 20.0,
                                           63.0, 80.0, 200.0));

// Property sweep: uniform_int has no modulo bias detectable via a chi-square
// style bound, across range sizes.
class RngUniformIntSweep : public ::testing::TestWithParam<int> {};

TEST_P(RngUniformIntSweep, RoughlyUniform) {
  const int buckets = GetParam();
  Rng rng(67);
  std::vector<int> counts(static_cast<std::size_t>(buckets), 0);
  const int n = 20000 * buckets;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, buckets - 1))];
  }
  for (int count : counts) {
    EXPECT_NEAR(count, 20000, 20000 * 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, RngUniformIntSweep,
                         ::testing::Values(2, 3, 5, 7, 10));

}  // namespace
}  // namespace explora::common
