// Unit and property tests for common/stats.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace explora::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 5.0};
  for (double x : data) stats.add(x);
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 2.0);          // population
  EXPECT_DOUBLE_EQ(stats.sample_variance(), 2.5);   // Bessel
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats left;
  RunningStats right;
  RunningStats combined;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(5.0, 3.0);
    (i % 2 == 0 ? left : right).add(x);
    combined.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(SampleStore, RetainsUpToCapacity) {
  SampleStore store(8);
  for (int i = 0; i < 5; ++i) store.add(i);
  EXPECT_EQ(store.retained(), 5u);
  EXPECT_EQ(store.seen(), 5u);
  for (int i = 0; i < 100; ++i) store.add(i);
  EXPECT_EQ(store.retained(), 8u);
  EXPECT_EQ(store.seen(), 105u);
}

TEST(SampleStore, ExactMomentsOverAllSamples) {
  SampleStore store(4);  // tiny reservoir, moments still exact
  double sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    store.add(i);
    sum += i;
  }
  EXPECT_DOUBLE_EQ(store.mean(), sum / 100.0);
  EXPECT_EQ(store.stats().count(), 100u);
}

TEST(SampleStore, ReservoirIsRepresentative) {
  // With a large stream of N(10, 1), the retained sample mean should be
  // close to 10 (Algorithm R keeps a uniform subsample).
  SampleStore store(128, 5);
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) store.add(rng.normal(10.0, 1.0));
  double sum = 0.0;
  for (double v : store.samples()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(store.retained()), 10.0, 0.5);
}

TEST(Histogram, CountsAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(0.5);    // bin 0
  hist.add(9.5);    // bin 4
  hist.add(-100.0); // clamps to bin 0
  hist.add(100.0);  // clamps to bin 4
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.count(0), 2u);
  EXPECT_EQ(hist.count(4), 2u);
  EXPECT_EQ(hist.count(2), 0u);
}

TEST(Histogram, PmfSumsToOne) {
  Histogram hist(0.0, 1.0, 7);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) hist.add(rng.uniform());
  double total = 0.0;
  for (double p : hist.pmf()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, EmptyPmfIsUniform) {
  Histogram hist(0.0, 1.0, 4);
  for (double p : hist.pmf()) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma ewma(0.1);
  EXPECT_TRUE(ewma.empty());
  EXPECT_DOUBLE_EQ(ewma.value(42.0), 42.0);
  ewma.add(10.0);
  EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma ewma(0.2);
  ewma.add(0.0);
  for (int i = 0; i < 200; ++i) ewma.add(5.0);
  EXPECT_NEAR(ewma.value(), 5.0, 1e-6);
}

TEST(Quantile, KnownValues) {
  const std::vector<double> data{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(data, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(data, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(data), 2.5);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> data{7.0};
  EXPECT_DOUBLE_EQ(quantile(data, 0.3), 7.0);
}

TEST(Quantile, EmptyReturnsZero) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

TEST(JensenShannon, IdenticalDistributionsNearZero) {
  Rng rng(11);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(0.0, 1.0));
  }
  EXPECT_LT(jensen_shannon_divergence(a, b), 0.05);
}

TEST(JensenShannon, DisjointDistributionsNearOne) {
  std::vector<double> a(100, 0.0);
  std::vector<double> b(100, 10.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] += static_cast<double>(i) * 0.001;
    b[i] += static_cast<double>(i) * 0.001;
  }
  EXPECT_GT(jensen_shannon_divergence(a, b), 0.9);
}

TEST(JensenShannon, SymmetricAndBounded) {
  Rng rng(13);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    b.push_back(rng.normal(1.5, 2.0));
  }
  const double ab = jensen_shannon_divergence(a, b);
  const double ba = jensen_shannon_divergence(b, a);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

TEST(JensenShannon, EmptyInputIsZero) {
  const std::vector<double> empty;
  const std::vector<double> data{1.0, 2.0};
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence(empty, data), 0.0);
}

TEST(JensenShannon, ConstantIdenticalSamplesIsZero) {
  const std::vector<double> a(10, 3.0);
  const std::vector<double> b(10, 3.0);
  EXPECT_DOUBLE_EQ(jensen_shannon_divergence(a, b), 0.0);
}

/// Reference: the JS divergence through two Histograms and their PMFs.
/// jensen_shannon_divergence must match it bit for bit.
double histogram_jsd(std::span<const double> a, std::span<const double> b,
                     std::size_t bins) {
  double lo = a[0];
  double hi = a[0];
  for (const auto* set : {&a, &b}) {
    for (double x : *set) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  Histogram ha(lo, hi, bins);
  Histogram hb(lo, hi, bins);
  for (double x : a) ha.add(x);
  for (double x : b) hb.add(x);
  const std::vector<double> pa = ha.pmf();
  const std::vector<double> pb = hb.pmf();
  std::vector<double> mid(bins);
  for (std::size_t i = 0; i < bins; ++i) mid[i] = 0.5 * (pa[i] + pb[i]);
  auto kl = [&](const std::vector<double>& p) {
    double sum = 0.0;
    for (std::size_t i = 0; i < bins; ++i) {
      if (p[i] > 0.0 && mid[i] > 0.0) sum += p[i] * std::log2(p[i] / mid[i]);
    }
    return sum;
  };
  return 0.5 * kl(pa) + 0.5 * kl(pb);
}

// Random sets, and sets built for the one-pass sum's shortcuts: it skips
// empty bins and adds p for a bin only one side occupies. 1 to 64 bins
// count on the stack, 100 on the heap.
TEST(JensenShannon, MatchesTheHistogramFormBitForBit) {
  Rng rng(23);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> cases;
  for (int round = 0; round < 50; ++round) {
    std::vector<double> a(10);
    std::vector<double> b(10);
    for (double& x : a) x = rng.uniform(0.0, 10.0);
    for (double& x : b) x = rng.uniform(2.0, 14.0);
    cases.emplace_back(a, b);
  }
  for (int round = 0; round < 20; ++round) {
    // Integer-valued samples of unequal counts: ties, shared and
    // one-sided bins.
    std::vector<double> a(7 + rng.index(9));
    std::vector<double> b(3 + rng.index(17));
    for (double& x : a) x = static_cast<double>(rng.index(6));
    for (double& x : b) x = static_cast<double>(rng.index(6) + 3);
    cases.emplace_back(a, b);
    cases.emplace_back(a, a);  // identical sets
    // Disjoint ranges: every occupied bin is one-sided.
    std::vector<double> far = b;
    for (double& x : far) x += 100.0;
    cases.emplace_back(a, far);
  }
  // One side constant inside the other's spread.
  cases.emplace_back(std::vector<double>(5, 2.0),
                     std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [a, b] = cases[i];
    for (const std::size_t bins :
         {std::size_t{1}, std::size_t{7}, std::size_t{32}, std::size_t{64},
          std::size_t{100}}) {
      const double got = jensen_shannon_divergence(a, b, bins);
      const double want = histogram_jsd(a, b, bins);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "case " << i << ", " << bins << " bins";
    }
  }
}

TEST(CdfPoints, MonotoneAndSpansRange) {
  Rng rng(17);
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) data.push_back(rng.uniform(0.0, 100.0));
  const auto points = cdf_points(data, 11);
  ASSERT_EQ(points.size(), 11u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i], points[i - 1]);
  }
  EXPECT_DOUBLE_EQ(points.front(), quantile(data, 0.0));
  EXPECT_DOUBLE_EQ(points.back(), quantile(data, 1.0));
}

// Property sweep: JS divergence grows monotonically (in expectation) with
// the separation between two Gaussians.
class JsSeparationSweep : public ::testing::TestWithParam<double> {};

TEST_P(JsSeparationSweep, GrowsWithSeparation) {
  const double shift = GetParam();
  Rng rng(23);
  std::vector<double> a;
  std::vector<double> near;
  std::vector<double> far;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.normal(0.0, 1.0));
    near.push_back(rng.normal(shift, 1.0));
    far.push_back(rng.normal(shift + 2.0, 1.0));
  }
  EXPECT_LE(jensen_shannon_divergence(a, near),
            jensen_shannon_divergence(a, far) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Shifts, JsSeparationSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace explora::common
