// The repo's one exp (common/detmath.hpp): its bits over a seeded sweep are
// pinned by a committed digest, every backend's lanes must be identical to
// the scalar port, its error against expl is bounded, the special cases
// keep glibc's results, and the lane-wise probe softmax (softmax_chosen)
// matches ml::softmax bit for bit on batch tails and fallback lanes.
#include "common/detmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "ml/agent.hpp"
#include "ml/gemm.hpp"
#include "ml/nn.hpp"

namespace explora {
namespace {


constexpr ml::gemm::Backend kBackends[] = {
    ml::gemm::Backend::kScalar, ml::gemm::Backend::kAvx2,
    ml::gemm::Backend::kAvx512};

/// Uniform double in [lo, hi) from the top 53 bits of one draw.
double uniform(common::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
}

/// Seeded inputs (1,074,313 values): 2^19 uniform in the softmax range
/// [-40, 0], 2^18 uniform in [-760, 710] (through underflow to 0,
/// subnormal results and overflow), 2048 uniform mantissas in every binade
/// [2^e, 2^(e+1)) for e = -60..9 and both signs, then the 64 neighbours on
/// each side of every edge: |x| = 2^-54, 512 and 1024 (the vector range
/// and the special-case edges), and the x where the result leaves the
/// normal range, underflows to 0 and overflows.
std::vector<double> sweep() {
  common::Rng rng(0xe4b);
  std::vector<double> xs;
  for (int i = 0; i < (1 << 19); ++i) xs.push_back(uniform(rng, -40.0, 0.0));
  for (int i = 0; i < (1 << 18); ++i) {
    xs.push_back(uniform(rng, -760.0, 710.0));
  }
  for (int e = -60; e <= 9; ++e) {
    for (const double sign : {1.0, -1.0}) {
      for (int i = 0; i < 2048; ++i) {
        const double mantissa =
            std::bit_cast<double>(0x3ff0000000000000ULL | (rng() >> 12));
        xs.push_back(sign * std::ldexp(mantissa, e));
      }
    }
  }
  for (const double edge : {0x1p-54, -0x1p-54, 512.0, -512.0, 1024.0,
                            -1024.0, -0x1.6232bdd7abcd2p+9,
                            -0x1.74910d52d3051p+9, 0x1.62e42fefa39efp+9}) {
    const auto bits = std::bit_cast<std::int64_t>(edge);
    for (std::int64_t step = -64; step <= 64; ++step) {
      xs.push_back(std::bit_cast<double>(bits + step));
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// FNV-1a over the result bytes of exp on sweep(), generated once by
/// hashing std::exp of glibc 2.36 (x86-64, FMA variant) in place of
/// detmath::exp below — the libm the golden traces were recorded with.
constexpr std::uint64_t kSweepDigest = 0xc2123042b7d671ceULL;

TEST(Exp, SweepBitsMatchPinnedDigest) {
  const auto xs = sweep();
  ASSERT_GE(xs.size(), std::size_t{1000000});
  std::vector<double> ys;
  ys.reserve(xs.size());
  for (const double x : xs) ys.push_back(detmath::exp(x));
  EXPECT_EQ(fnv1a(ys), kSweepDigest);
}

// exp_array on every backend reproduces the scalar port byte for byte:
// the sweep is shuffled so vector lanes, tiny lanes and scalar fallback
// lanes mix within a register, and the odd length leaves a scalar tail.
TEST(Exp, EveryBackendLanesMatchScalarPort) {
  auto xs = sweep();
  common::Rng rng(0x52);
  rng.shuffle(xs);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double special : {inf, -inf, std::nan(""), -std::nan(""), 0.0,
                               -0.0, 1e-310, 800.0, -800.0}) {
    xs.push_back(special);
  }
  std::vector<double> expected(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) expected[i] = detmath::exp(xs[i]);
  std::vector<double> ys(xs.size());
  for (const auto backend : kBackends) {
    ml::gemm::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(ml::gemm::to_string(backend));
    std::fill(ys.begin(), ys.end(), 0.0);
    ml::gemm::exp_array(xs.data(), ys.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(bits(ys[i]), bits(expected[i])) << "x = " << xs[i];
    }
  }
}

TEST(Exp, WithinOneUlpOfExpl) {
  if (std::numeric_limits<long double>::digits <=
      std::numeric_limits<double>::digits) {
    GTEST_SKIP() << "long double is no wider than double here";
  }
  long double worst = 0.0L;
  for (const double x : sweep()) {
    const long double reference = std::exp(static_cast<long double>(x));
    const double y = detmath::exp(x);
    if (reference == 0.0L || std::isinf(y)) continue;
    // One ulp of the double nearest the reference (subnormals included).
    const int exponent =
        std::max(std::ilogb(static_cast<double>(reference)),
                 std::numeric_limits<double>::min_exponent - 1);
    const long double ulp = std::ldexp(
        1.0L, exponent - (std::numeric_limits<double>::digits - 1));
    const long double error =
        std::fabs(static_cast<long double>(y) - reference) / ulp;
    if (error > worst) worst = error;
  }
  RecordProperty("max_ulp", std::to_string(static_cast<double>(worst)));
  EXPECT_LE(worst, 1.0L);
}

TEST(Exp, SpecialCases) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(bits(detmath::exp(0.0)), bits(1.0));
  EXPECT_EQ(bits(detmath::exp(-0.0)), bits(1.0));
  EXPECT_EQ(bits(detmath::exp(0x1p-60)), bits(1.0));
  EXPECT_EQ(bits(detmath::exp(-0x1p-60)), bits(1.0));
  EXPECT_EQ(bits(detmath::exp(1.0)), bits(0x1.5bf0a8b145769p+1));
  // Results at the bottom of the normal range, subnormal, and the last
  // nonzero one; then overflow's edge. Pinned from glibc 2.36's std::exp.
  EXPECT_EQ(bits(detmath::exp(-708.4)), bits(0x0.ff15b469edf89p-1022));
  EXPECT_EQ(bits(detmath::exp(-720.0)), bits(0x0.0000993b4dc95p-1022));
  EXPECT_EQ(bits(detmath::exp(-745.13)), bits(0x0.0000000000001p-1022));
  EXPECT_EQ(bits(detmath::exp(-746.0)), bits(0.0));
  EXPECT_EQ(bits(detmath::exp(709.78)), bits(0x1.fe9ce5c4c52b4p+1023));
  EXPECT_EQ(detmath::exp(709.79), inf);
  EXPECT_EQ(detmath::exp(inf), inf);
  EXPECT_EQ(bits(detmath::exp(-inf)), bits(0.0));
  EXPECT_TRUE(std::isnan(detmath::exp(std::nan(""))));
  EXPECT_TRUE(std::isnan(detmath::exp(-std::nan(""))));
  for (const double x : {-708.4, -720.0, -745.13}) {
    EXPECT_EQ(std::fpclassify(detmath::exp(x)), FP_SUBNORMAL) << x;
  }
}

/// softmax_chosen against ml::softmax on each head span of every row of
/// `logits`, on every backend, for a chosen action that takes the last
/// component of every head.
void expect_softmax_chosen_matches(const ml::Matrix& logits) {
  const auto offsets = ml::head_offsets();
  ml::AgentAction chosen;
  chosen.prb_choice = offsets[1] - offsets[0] - 1;
  for (auto& s : chosen.sched_choice) s = offsets[2] - offsets[1] - 1;
  const auto choices = ml::head_choices(chosen);
  for (const auto backend : kBackends) {
    ml::gemm::ScopedBackend forced(backend);
    if (!forced.engaged()) continue;
    SCOPED_TRACE(ml::gemm::to_string(backend));
    const ml::Matrix probs = ml::softmax_chosen(logits, chosen, "test");
    ASSERT_EQ(probs.rows(), logits.rows());
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      for (std::size_t h = 0; h < ml::kNumHeads; ++h) {
        std::vector<double> head(
            logits.data().begin() +
                static_cast<std::ptrdiff_t>(r * logits.cols() + offsets[h]),
            logits.data().begin() +
                static_cast<std::ptrdiff_t>(r * logits.cols() +
                                            offsets[h + 1]));
        ml::softmax(head);
        ASSERT_EQ(bits(probs(r, h)), bits(head[choices[h]]))
            << "row " << r << " head " << h;
      }
    }
  }
}

TEST(Exp, SoftmaxChosenMatchesSoftmaxOnBatchTails) {
  // Also runs softmax_chosen's own audit against ml::softmax.
  contracts::ScopedCheckLevel audit(contracts::CheckLevel::kAudit);
  const std::size_t cols = ml::head_offsets()[ml::kNumHeads];
  common::Rng rng(0x5f);
  for (std::size_t rows = 1; rows <= 17; ++rows) {
    SCOPED_TRACE(rows);
    ml::Matrix logits(rows, cols);
    for (auto& v : logits.data()) v = rng.normal(0.0, 3.0);
    expect_softmax_chosen_matches(logits);
  }
}

// Heads whose spread exceeds kExpVectorMax put exp arguments at or below
// -512 in some lanes: those fall back to the scalar port (subnormal and
// zero probabilities) while the other lanes stay vectorized.
TEST(Exp, SoftmaxChosenMatchesSoftmaxOnFallbackLanes) {
  const std::size_t cols = ml::head_offsets()[ml::kNumHeads];
  common::Rng rng(0x60);
  for (const std::size_t rows : {std::size_t{3}, std::size_t{8},
                                 std::size_t{13}}) {
    SCOPED_TRACE(rows);
    ml::Matrix logits(rows, cols);
    for (auto& v : logits.data()) v = rng.normal(0.0, 3.0);
    for (std::size_t r = 0; r < rows; r += 2) {
      for (std::size_t c = 0; c < cols; c += 3) {
        logits(r, c) = -uniform(rng, 500.0, 800.0);
      }
      logits(r, cols - 1) = 700.0;  // spread > 1024 in the last head
    }
    expect_softmax_chosen_matches(logits);
  }
}

}  // namespace
}  // namespace explora
