// Unit tests for the channel model (netsim/channel).
#include "netsim/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "support/reference_cqi.hpp"

namespace explora::netsim {
namespace {

ChannelConfig deterministic_config() {
  ChannelConfig config;
  config.fading_enabled = false;
  return config;
}

TEST(CqiMapping, MonotoneInSinr) {
  std::uint32_t previous = 0;
  for (double sinr = -10.0; sinr <= 30.0; sinr += 0.5) {
    const std::uint32_t cqi = sinr_to_cqi(sinr);
    EXPECT_GE(cqi, 1u);
    EXPECT_LE(cqi, 15u);
    EXPECT_GE(cqi, previous);
    previous = cqi;
  }
}

TEST(CqiMapping, Extremes) {
  EXPECT_EQ(sinr_to_cqi(-50.0), 1u);
  EXPECT_EQ(sinr_to_cqi(50.0), 15u);
}

// Differential test against the descending-scan oracle: every threshold and
// both of its floating-point neighbours, the IEEE special values, and a
// seeded sweep over the SINRs a UE can see.
TEST(CqiMapping, MatchesThresholdScan) {
  const auto expect_match = [](double sinr) {
    ASSERT_EQ(sinr_to_cqi(sinr), reference::sinr_to_cqi(sinr))
        << "sinr_db = " << sinr;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double threshold : kCqiSinrThresholdDb) {
    expect_match(threshold);
    expect_match(std::nextafter(threshold, -kInf));
    expect_match(std::nextafter(threshold, kInf));
  }
  for (const double special :
       {0.0, -0.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
        DBL_MAX, -DBL_MAX, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min()}) {
    expect_match(special);
  }
  EXPECT_EQ(sinr_to_cqi(std::numeric_limits<double>::quiet_NaN()), 1u);
  EXPECT_EQ(sinr_to_cqi(-kInf), 1u);
  EXPECT_EQ(sinr_to_cqi(kInf), 15u);

  common::Rng rng(2027);
  for (int i = 0; i < 1'000'000; ++i) {
    ASSERT_NO_FATAL_FAILURE(expect_match(rng.uniform(-120.0, 60.0)));
  }
}

TEST(CqiEfficiency, MonotoneAndPositive) {
  double previous = 0.0;
  for (std::uint32_t cqi = 1; cqi <= 15; ++cqi) {
    const double eff = cqi_spectral_efficiency(cqi);
    EXPECT_GT(eff, previous);
    previous = eff;
  }
  EXPECT_DOUBLE_EQ(cqi_spectral_efficiency(0), 0.0);
}

TEST(CqiBytesPerPrb, KnownEndpoints) {
  // CQI 15: 5.5547 b/sym * 168 sym * 0.75 / 8 = 87 bytes.
  EXPECT_EQ(cqi_bytes_per_prb(15), 87u);
  // CQI 1: 0.1523 * 168 * 0.75 / 8 = 2 bytes.
  EXPECT_EQ(cqi_bytes_per_prb(1), 2u);
}

// The table is built at compile time; each entry must equal the runtime
// formula it replaced, evaluated in the same operation order.
TEST(CqiBytesPerPrb, TableMatchesFormula) {
  for (std::uint32_t cqi = 0; cqi <= 15; ++cqi) {
    const double bits = cqi_spectral_efficiency(cqi) * 12.0 * 14.0 * 0.75;
    EXPECT_EQ(cqi_bytes_per_prb(cqi), static_cast<std::uint32_t>(bits / 8.0))
        << "cqi = " << cqi;
  }
}

TEST(UeChannel, CloserIsBetter) {
  const ChannelConfig config = deterministic_config();
  UeChannel near(300.0, config, common::Rng(1));
  UeChannel far(1500.0, config, common::Rng(1));
  EXPECT_GT(near.sinr_db(), far.sinr_db());
  EXPECT_GE(near.cqi(), far.cqi());
  EXPECT_GE(near.bytes_per_prb(), far.bytes_per_prb());
}

TEST(UeChannel, DeterministicWithoutFading) {
  const ChannelConfig config = deterministic_config();
  UeChannel channel(800.0, config, common::Rng(2));
  const double initial = channel.sinr_db();
  for (int i = 0; i < 100; ++i) {
    channel.advance();
    EXPECT_DOUBLE_EQ(channel.sinr_db(), initial);
  }
}

TEST(UeChannel, SetDistanceUpdatesSinr) {
  const ChannelConfig config = deterministic_config();
  UeChannel channel(500.0, config, common::Rng(3));
  const double before = channel.sinr_db();
  channel.set_distance(1000.0);
  // Log-distance path loss: doubling distance costs 37.6*log10(2) = 11.3 dB.
  EXPECT_NEAR(before - channel.sinr_db(), 37.6 * 0.30103, 0.01);
}

// One batched pass over a cell equals advancing each channel alone, bit for
// bit, with mobility steps and fading blocks falling on different TTIs and
// one channel without fading in the batch.
TEST(UeChannel, AdvanceAllMatchesAdvancingEachChannel) {
  ChannelConfig fading;  // fading on
  ChannelConfig still = deterministic_config();
  MobilityConfig moving;
  moving.speed_mps = 30.0;
  std::vector<UeChannel> batched;
  std::vector<UeChannel> alone;
  for (std::size_t i = 0; i < 7; ++i) {
    fading.fading_block_ttis = static_cast<Tick>(3 + i);
    const ChannelConfig& config = i == 4 ? still : fading;
    batched.emplace_back(200.0 + 150.0 * static_cast<double>(i), config,
                         common::Rng(40 + i));
    alone.emplace_back(200.0 + 150.0 * static_cast<double>(i), config,
                       common::Rng(40 + i));
    if (i % 3 == 0) {
      batched.back().set_mobility(moving);
      alone.back().set_mobility(moving);
    }
  }
  std::vector<UeChannel*> cell;
  for (auto& channel : batched) cell.push_back(&channel);
  for (int tti = 0; tti < 2500; ++tti) {
    UeChannel::advance_all(cell);
    for (auto& channel : alone) channel.advance();
    for (std::size_t i = 0; i < cell.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[i].sinr_db()),
                std::bit_cast<std::uint64_t>(alone[i].sinr_db()))
          << "tti " << tti << ", channel " << i;
      ASSERT_EQ(batched[i].distance_m(), alone[i].distance_m());
    }
  }
}

TEST(UeChannel, FadingVariesSinr) {
  ChannelConfig config;  // fading on
  config.fading_block_ttis = 1;
  UeChannel channel(800.0, config, common::Rng(4));
  common::RunningStats stats;
  for (int i = 0; i < 2000; ++i) {
    channel.advance();
    stats.add(channel.sinr_db());
  }
  EXPECT_GT(stats.stddev(), 2.0);  // Rayleigh + shadowing spread
}

TEST(UeChannel, ShadowingIsStationary) {
  // Without Rayleigh fading blocks but with shadowing, long-run SINR mean
  // should be near the deterministic value and the spread near sigma.
  ChannelConfig config;
  config.fading_block_ttis = 1 << 30;  // effectively never redraw fading
  config.shadowing_sigma_db = 4.0;
  UeChannel deterministic(800.0, deterministic_config(), common::Rng(5));
  // Use many independent channels to estimate the stationary distribution
  // (one AR(1) trace mixes slowly at rho = 0.995).
  common::RunningStats stats;
  common::Rng master(5);
  for (int c = 0; c < 400; ++c) {
    UeChannel channel(800.0, config,
                      master.fork(static_cast<std::uint64_t>(c)));
    // Fading gain is drawn once at construction; remove it by measuring
    // the shadowing-only delta after many advances.
    for (int i = 0; i < 50; ++i) channel.advance();
    stats.add(channel.sinr_db());
  }
  // Mean within ~1 dB of deterministic minus the Rayleigh mean offset
  // (E[10 log10 X] for X~Exp(1) is about -2.5 dB).
  EXPECT_NEAR(stats.mean(), deterministic.sinr_db() - 2.5, 1.5);
}

TEST(UeChannel, SameSeedSameTrace) {
  ChannelConfig config;
  UeChannel a(700.0, config, common::Rng(6));
  UeChannel b(700.0, config, common::Rng(6));
  for (int i = 0; i < 200; ++i) {
    a.advance();
    b.advance();
    EXPECT_DOUBLE_EQ(a.sinr_db(), b.sinr_db());
  }
}

// Property sweep: CQI and bytes/PRB are stored when the SINR changes, so
// after every advance() (mobility steps included) and every explicit
// set_distance() they must equal a fresh mapping of the current SINR, with
// fading on and off.
class ChannelDistanceSweep : public ::testing::TestWithParam<double> {};

void expect_fresh(const UeChannel& channel) {
  ASSERT_EQ(channel.cqi(), sinr_to_cqi(channel.sinr_db()));
  ASSERT_EQ(channel.bytes_per_prb(), cqi_bytes_per_prb(channel.cqi()));
  ASSERT_DOUBLE_EQ(channel.bits_per_prb(),
                   static_cast<double>(channel.bytes_per_prb()) * 8.0);
}

TEST_P(ChannelDistanceSweep, BytesMatchCqiTable) {
  for (const bool fading : {true, false}) {
    SCOPED_TRACE(fading ? "fading on" : "fading off");
    ChannelConfig config;
    config.fading_enabled = fading;
    UeChannel channel(GetParam(), config, common::Rng(7));
    // Fast mobility: one random-walk step per simulated second.
    channel.set_mobility({.speed_mps = 400.0,
                          .min_distance_m = 50.0,
                          .max_distance_m = 3500.0});
    ASSERT_NO_FATAL_FAILURE(expect_fresh(channel));
    common::Rng moves(9);
    std::array<bool, 16> seen{};
    for (int i = 0; i < 6000; ++i) {
      channel.advance();
      ASSERT_NO_FATAL_FAILURE(expect_fresh(channel)) << "advance " << i;
      seen[channel.cqi()] = true;
      if (i % 250 == 0) {
        channel.set_distance(moves.uniform(60.0, 3400.0));
        ASSERT_NO_FATAL_FAILURE(expect_fresh(channel)) << "move " << i;
        seen[channel.cqi()] = true;
      }
    }
    // The CQI must actually move, or the sweep proves nothing.
    EXPECT_GE(std::count(seen.begin(), seen.end(), true), 8);
  }
}

INSTANTIATE_TEST_SUITE_P(Distances, ChannelDistanceSweep,
                         ::testing::Values(200.0, 600.0, 1000.0, 1500.0,
                                           2500.0));

}  // namespace
}  // namespace explora::netsim
