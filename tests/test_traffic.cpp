// Unit tests for the traffic sources (netsim/traffic).
#include "netsim/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace explora::netsim {
namespace {

TEST(CbrSource, DeliversConfiguredRate) {
  CbrSource source(4e6, 1500);  // 4 Mbit/s = 500 kB/s = 500 B/ms
  std::uint64_t total_bytes = 0;
  std::uint32_t total_packets = 0;
  const int ttis = 10000;  // 10 s
  for (int t = 0; t < ttis; ++t) {
    const auto batch = source.arrivals(t);
    total_bytes += batch.bytes;
    total_packets += batch.packets;
  }
  const double rate_bps = static_cast<double>(total_bytes) * 8.0 /
                          (ttis / 1000.0);
  EXPECT_NEAR(rate_bps, 4e6, 4e6 * 0.005);
  EXPECT_EQ(total_bytes, static_cast<std::uint64_t>(total_packets) * 1500);
}

TEST(CbrSource, FractionalAccumulationNoDrift) {
  // 100 kbit/s with 1500 B packets: one packet every 120 ms exactly.
  CbrSource source(1e5, 1500);
  std::uint32_t packets = 0;
  for (int t = 0; t < 120000; ++t) packets += source.arrivals(t).packets;
  EXPECT_EQ(packets, 1000u);
}

TEST(PoissonSource, MeanRateMatches) {
  PoissonSource source(89.3e3, 125, common::Rng(1));
  std::uint64_t total_bytes = 0;
  const int ttis = 200000;  // 200 s
  for (int t = 0; t < ttis; ++t) total_bytes += source.arrivals(t).bytes;
  const double rate_bps = static_cast<double>(total_bytes) * 8.0 /
                          (ttis / 1000.0);
  EXPECT_NEAR(rate_bps, 89.3e3, 89.3e3 * 0.05);
}

TEST(PoissonSource, IsActuallyBursty) {
  PoissonSource source(500e3, 125, common::Rng(2));
  std::uint32_t max_in_tti = 0;
  int empty_ttis = 0;
  for (int t = 0; t < 10000; ++t) {
    const auto batch = source.arrivals(t);
    max_in_tti = std::max(max_in_tti, batch.packets);
    if (batch.packets == 0) ++empty_ttis;
  }
  EXPECT_GT(max_in_tti, 1u);   // bursts happen
  EXPECT_GT(empty_ttis, 100);  // silences happen
}

TEST(TrafficProfiles, Trf1RatesPerSlice) {
  common::Rng rng(3);
  auto embb = make_traffic_source(TrafficProfile::kTrf1, Slice::kEmbb,
                                  rng.fork(0));
  auto mmtc = make_traffic_source(TrafficProfile::kTrf1, Slice::kMmtc,
                                  rng.fork(1));
  auto urllc = make_traffic_source(TrafficProfile::kTrf1, Slice::kUrllc,
                                   rng.fork(2));
  EXPECT_DOUBLE_EQ(embb->offered_bps(), 4e6);
  EXPECT_DOUBLE_EQ(mmtc->offered_bps(), 44.6e3);
  EXPECT_DOUBLE_EQ(urllc->offered_bps(), 89.3e3);
}

TEST(TrafficProfiles, Trf2RatesPerSlice) {
  common::Rng rng(4);
  auto embb = make_traffic_source(TrafficProfile::kTrf2, Slice::kEmbb,
                                  rng.fork(0));
  auto mmtc = make_traffic_source(TrafficProfile::kTrf2, Slice::kMmtc,
                                  rng.fork(1));
  auto urllc = make_traffic_source(TrafficProfile::kTrf2, Slice::kUrllc,
                                   rng.fork(2));
  EXPECT_DOUBLE_EQ(embb->offered_bps(), 2e6);
  EXPECT_DOUBLE_EQ(mmtc->offered_bps(), 133.9e3);
  EXPECT_DOUBLE_EQ(urllc->offered_bps(), 178.6e3);
}

TEST(TrafficProfiles, Names) {
  EXPECT_EQ(to_string(TrafficProfile::kTrf1), "TRF1");
  EXPECT_EQ(to_string(TrafficProfile::kTrf2), "TRF2");
}

// Property sweep: every profile/slice source delivers its nominal rate
// within 5% over a long horizon.
class TrafficRateSweep
    : public ::testing::TestWithParam<std::tuple<TrafficProfile, Slice>> {};

TEST_P(TrafficRateSweep, LongRunRateWithinTolerance) {
  const auto [profile, slice] = GetParam();
  auto source = make_traffic_source(profile, slice, common::Rng(5));
  std::uint64_t total_bytes = 0;
  const int ttis = 300000;
  for (int t = 0; t < ttis; ++t) total_bytes += source->arrivals(t).bytes;
  const double rate = static_cast<double>(total_bytes) * 8.0 /
                      (ttis / 1000.0);
  EXPECT_NEAR(rate, source->offered_bps(), source->offered_bps() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, TrafficRateSweep,
    ::testing::Combine(::testing::Values(TrafficProfile::kTrf1,
                                         TrafficProfile::kTrf2),
                       ::testing::Values(Slice::kEmbb, Slice::kMmtc,
                                         Slice::kUrllc)));

// ---- Poisson draws: the precomputed threshold changes no draw -------------

/// Rng::poisson as written before PoissonSampler existed, recomputing
/// Knuth's exp(-mean) threshold on every draw.
std::uint32_t per_draw_poisson(common::Rng& rng, double mean) {
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    const double threshold = std::exp(-mean);
    std::uint32_t count = 0;
    double product = rng.uniform();
    while (product > threshold) {
      ++count;
      product *= rng.uniform();
    }
    return count;
  }
  const double draw = rng.normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0u : static_cast<std::uint32_t>(draw + 0.5);
}

class PoissonDrawsUnchanged : public ::testing::TestWithParam<double> {};

TEST_P(PoissonDrawsUnchanged, MatchPerDrawThreshold) {
  const double mean = GetParam();
  common::Rng rng(91);
  common::Rng reference(91);
  std::uint64_t total = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t expected = per_draw_poisson(reference, mean);
    ASSERT_EQ(rng.poisson(mean), expected) << "draw " << i;
    total += expected;
  }
  // Same follow-on state: the Box-Muller cache the normal path leaves
  // behind, then the raw stream.
  EXPECT_EQ(rng.normal(), reference.normal());
  EXPECT_EQ(rng.normal(), reference.normal());
  EXPECT_EQ(rng(), reference());
  if (mean == 0.0) return;  // a source needs a positive rate
  EXPECT_GT(total, 0u);

  constexpr std::uint32_t kPacketBytes = 125;
  const double rate_bps = mean * 8.0 * kPacketBytes * 1000.0;
  // The per-TTI mean exactly as PoissonSource derives it from its rate.
  const double source_mean = rate_bps / 8.0 / kPacketBytes / 1000.0;
  PoissonSource source(rate_bps, kPacketBytes, common::Rng(92));
  common::Rng source_reference(92);
  // Each draw starts from the generator state the previous one left, so a
  // long run of equal counts also pins the source's follow-on state; the
  // normal path alternates between drawing and using its cached variate.
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t expected =
        per_draw_poisson(source_reference, source_mean);
    const ArrivalBatch batch = source.arrivals(i);
    ASSERT_EQ(batch.packets, expected) << "draw " << i;
    ASSERT_EQ(batch.bytes, std::uint64_t{expected} * kPacketBytes);
  }
}

// 0.0446 is TRF1's mMTC mean per TTI; 64 and 200 take the normal
// approximation, which no TRF profile reaches.
INSTANTIATE_TEST_SUITE_P(Means, PoissonDrawsUnchanged,
                         ::testing::Values(0.0, 0.0446, 1.0, 63.9, 64.0,
                                           200.0));

}  // namespace
}  // namespace explora::netsim
