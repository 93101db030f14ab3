#include "netsim/channel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>

#include "common/contracts.hpp"
#include "netsim/kpi.hpp"
#include "netsim/types.hpp"

namespace explora::netsim {

namespace {

// 36.213 Table 7.2.3-1 spectral efficiencies, CQI 1..15.
constexpr std::array<double, 16> kCqiEfficiency = {
    0.0,    0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141, 2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547};

constexpr double kSubcarriersPerPrb = 12.0;
constexpr double kSymbolsPerTti = 14.0;
constexpr double kOverheadFactor = 0.75;  // PDCCH + DMRS overhead

// Largest transport-block size one PRB can carry in one TTI: CQI 15
// efficiency over 12 subcarriers x 14 symbols at 75% usable overhead.
constexpr std::uint32_t kMaxBytesPerPrb = 87;

// Transport-block bytes per PRB for each CQI, evaluated at compile time
// with the same expression and operation order the runtime formula used,
// so every entry is the bytes that formula produced.
constexpr std::array<std::uint32_t, 16> kBytesPerPrb = [] {
  std::array<std::uint32_t, 16> bytes{};
  for (std::size_t cqi = 0; cqi < bytes.size(); ++cqi) {
    const double bits = kCqiEfficiency[cqi] * kSubcarriersPerPrb *
                        kSymbolsPerTti * kOverheadFactor;
    bytes[cqi] = static_cast<std::uint32_t>(bits / 8.0);
  }
  return bytes;
}();

static_assert(std::ranges::all_of(kBytesPerPrb,
                                  [](std::uint32_t bytes) {
                                    return bytes <= kMaxBytesPerPrb;
                                  }),
              "TBS bytes/PRB exceeds the CQI-15 ceiling");
static_assert(kBytesPerPrb[15] == kMaxBytesPerPrb);

static_assert(std::ranges::is_sorted(kCqiSinrThresholdDb.begin() + 1,
                                     kCqiSinrThresholdDb.end(),
                                     std::less_equal<>{}),
              "sinr_to_cqi's count needs strictly rising thresholds");

}  // namespace

// The thresholds rise strictly, so the CQI is the number of thresholds
// 1..15 the SINR reaches (at least 1). A branch-free binary search finds
// that count in four compares whose outcome feeds an add, not a jump: the
// fading draw makes any branch on the SINR mispredict about half the time.
// NaN reaches no threshold and maps to CQI 1.
std::uint32_t sinr_to_cqi(double sinr_db) noexcept {
  std::uint32_t reached = 0;
  reached += 8 * static_cast<std::uint32_t>(sinr_db >= kCqiSinrThresholdDb[8]);
  reached += 4 * static_cast<std::uint32_t>(
                     sinr_db >= kCqiSinrThresholdDb[reached + 4]);
  reached += 2 * static_cast<std::uint32_t>(
                     sinr_db >= kCqiSinrThresholdDb[reached + 2]);
  reached += static_cast<std::uint32_t>(
      sinr_db >= kCqiSinrThresholdDb[reached + 1]);
  const std::uint32_t cqi = reached + static_cast<std::uint32_t>(reached == 0);
  EXPLORA_ENSURES(cqi >= 1 && cqi <= 15);
  return cqi;
}

double cqi_spectral_efficiency(std::uint32_t cqi) {
  EXPLORA_EXPECTS_MSG(cqi <= 15, "CQI {} outside the 4-bit table range [0, 15]",
                      cqi);
  // Clamp as defensive fallback for EXPLORA_CHECK_LEVEL=off builds.
  return kCqiEfficiency[std::min(cqi, 15u)];
}

std::uint32_t cqi_bytes_per_prb(std::uint32_t cqi) {
  EXPLORA_EXPECTS_MSG(cqi <= 15, "CQI {} outside the 4-bit table range [0, 15]",
                      cqi);
  // Clamp as defensive fallback for EXPLORA_CHECK_LEVEL=off builds.
  return kBytesPerPrb[std::min(cqi, 15u)];
}

UeChannel::UeChannel(double distance_m, const ChannelConfig& config,
                     common::Rng rng)
    : distance_m_(distance_m),
      config_(config),
      // AR(1) shadowing: rho-correlated Gaussian with stationary sigma.
      innovation_sigma_(config.shadowing_sigma_db *
                        std::sqrt(1.0 - config.shadowing_rho *
                                            config.shadowing_rho)),
      rng_(rng) {
  EXPLORA_EXPECTS(distance_m > 1.0);
  set_distance(distance_m);
  if (config_.fading_enabled) {
    // Warm-start shadowing from its stationary distribution.
    shadowing_db_ = rng_.normal(0.0, config_.shadowing_sigma_db);
    set_fading_gain(rng_.exponential(1.0));
  }
  refresh_sinr();
}

void UeChannel::set_distance(double distance_m) {
  EXPLORA_EXPECTS(distance_m > 1.0);
  distance_m_ = distance_m;
  // Log-distance path loss (3GPP macro): 128.1 + 37.6 log10(d/km).
  const double pl_db = 128.1 + 37.6 * std::log10(distance_m_ / 1000.0);  // det-ok: libm-transcendental (ROADMAP item 3)
  // Noise over one PRB (180 kHz) plus receiver noise figure.
  const double noise_dbm =
      -174.0 + 10.0 * std::log10(180e3) + config_.noise_figure_db;  // det-ok: libm-transcendental (ROADMAP item 3)
  // Power is split evenly across the carrier's PRBs.
  const double tx_per_prb_dbm =
      config_.tx_power_dbm - 10.0 * std::log10(static_cast<double>(kTotalPrbs));  // det-ok: libm-transcendental (ROADMAP item 3)
  mean_snr_db_ = tx_per_prb_dbm - pl_db - noise_dbm;
  refresh_sinr();
}

void UeChannel::set_mobility(const MobilityConfig& mobility) {
  EXPLORA_EXPECTS(mobility.speed_mps >= 0.0);
  EXPLORA_EXPECTS(mobility.max_distance_m > mobility.min_distance_m);
  EXPLORA_EXPECTS(mobility.min_distance_m > 1.0);
  mobility_ = mobility;
}

void UeChannel::advance() noexcept {
  UeChannel* self = this;
  advance_all(std::span<UeChannel* const>(&self, 1));
}

namespace {

/// Channels advance_all() takes at a time: a whole cell (three slices of
/// kMaxUesPerSlice UEs) is one chunk, and the scratch is on the stack.
constexpr std::size_t kAdvanceChunk = 3 * kMaxUesPerSlice;

}  // namespace

void UeChannel::advance_all(std::span<UeChannel* const> channels) noexcept {
  for (std::size_t base = 0; base < channels.size(); base += kAdvanceChunk) {
    const auto chunk = channels.subspan(
        base, std::min(kAdvanceChunk, channels.size() - base));
    // Scratch for the channels that draw in one phase; only the first n
    // entries are ever read.
    UeChannel* drawing[kAdvanceChunk];
    common::Rng* streams[kAdvanceChunk];
    double draws[kAdvanceChunk];
    std::size_t n = 0;
    const auto draw = [&](auto batch) {
      if (n != 0) {
        batch(std::span<common::Rng* const>(streams, n),
              std::span<double>(draws, n));
      }
    };

    // One mobility step per simulated second.
    for (UeChannel* channel : chunk) {
      if (channel->mobility_.speed_mps > 0.0 &&
          ++channel->ttis_since_move_ >= 1000) {
        channel->ttis_since_move_ = 0;
        drawing[n] = channel;
        streams[n++] = &channel->rng_;
      }
    }
    draw(common::Rng::normals);
    for (std::size_t i = 0; i < n; ++i) {
      UeChannel& channel = *drawing[i];
      const MobilityConfig& mobility = channel.mobility_;
      // Rng::normal(0, speed)'s arithmetic.
      double next = channel.distance_m_ + (0.0 + mobility.speed_mps * draws[i]);
      if (next < mobility.min_distance_m) {
        next = 2.0 * mobility.min_distance_m - next;
      }
      if (next > mobility.max_distance_m) {
        next = 2.0 * mobility.max_distance_m - next;
      }
      channel.set_distance(
          std::clamp(next, mobility.min_distance_m, mobility.max_distance_m));
    }

    // AR(1) shadowing every TTI.
    n = 0;
    for (UeChannel* channel : chunk) {
      if (!channel->config_.fading_enabled) continue;
      drawing[n] = channel;
      streams[n++] = &channel->rng_;
    }
    draw(common::Rng::normals);
    for (std::size_t i = 0; i < n; ++i) {
      UeChannel& channel = *drawing[i];
      channel.shadowing_db_ =
          channel.config_.shadowing_rho * channel.shadowing_db_ +
          (0.0 + channel.innovation_sigma_ * draws[i]);
    }

    // A Rayleigh power gain at each fading block boundary.
    const std::size_t shadowed = n;
    n = 0;
    for (std::size_t i = 0; i < shadowed; ++i) {
      UeChannel* channel = drawing[i];
      if (++channel->ttis_into_block_ >= channel->config_.fading_block_ttis) {
        channel->ttis_into_block_ = 0;
        drawing[n] = channel;
        streams[n++] = &channel->rng_;
      }
    }
    draw(common::Rng::exponentials);
    for (std::size_t i = 0; i < n; ++i) drawing[i]->set_fading_gain(draws[i]);

    for (UeChannel* channel : chunk) {
      if (channel->config_.fading_enabled) channel->refresh_sinr();
    }
  }
}

void UeChannel::set_fading_gain(double gain) noexcept {
  fading_db_ = 10.0 * std::log10(std::max(gain, 1e-6));  // det-ok: libm-transcendental (ROADMAP item 3)
}

void UeChannel::refresh_sinr() noexcept {
  sinr_db_ = mean_snr_db_ + shadowing_db_ + fading_db_;
  cqi_ = sinr_to_cqi(sinr_db_);
  bytes_per_prb_ = kBytesPerPrb[cqi_];  // in range: sinr_to_cqi ensures it
}

}  // namespace explora::netsim
