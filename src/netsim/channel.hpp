// Downlink channel model: log-distance path loss, AR(1) log-normal
// shadowing, and Rayleigh block fading, mapped to CQI and per-PRB transport
// capacity via the LTE CQI table.
//
// The model is deliberately frequency-flat (one SINR per UE per TTI): the
// schedulers differentiate users by *time-selective* channel quality, which
// is what drives RR/WF/PF behaviour differences at the slicing granularity
// EXPLORA observes.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "netsim/types.hpp"

namespace explora::netsim {

/// Static link-budget parameters (3GPP-macro-like defaults).
struct ChannelConfig {
  double tx_power_dbm = 46.0;        ///< gNB transmit power over the carrier
  double noise_figure_db = 7.0;      ///< UE receiver noise figure
  double shadowing_sigma_db = 6.0;   ///< log-normal shadowing std-dev
  double shadowing_rho = 0.995;      ///< AR(1) correlation per TTI
  Tick fading_block_ttis = 10;       ///< Rayleigh coherence block [TTI]
  /// Disable for a deterministic channel (tests, ablations): fading gain
  /// pins to 1 and shadowing to 0.
  bool fading_enabled = true;
};

/// Random-walk mobility along the BS-UE axis: each second the UE drifts
/// by a bounded Gaussian step, reflecting at the band edges. speed 0
/// disables movement (the paper's static deployment).
struct MobilityConfig {
  double speed_mps = 0.0;      ///< RMS drift speed
  double min_distance_m = 50.0;
  double max_distance_m = 3000.0;
};

/// Per-UE time-varying channel. Advance once per TTI; query SINR/CQI and
/// the bytes one PRB can carry in the current TTI. CQI and bytes/PRB are
/// derived whenever the SINR changes, so the schedulers' many queries per
/// TTI read stored values.
class UeChannel {
 public:
  /// @param distance_m UE-gNB distance in meters (> 1).
  /// @param config link-budget parameters.
  /// @param rng dedicated RNG stream for this UE's channel.
  UeChannel(double distance_m, const ChannelConfig& config,
            common::Rng rng);

  /// Enables mobility (disabled by default).
  void set_mobility(const MobilityConfig& mobility);

  /// Evolves shadowing each TTI and redraws fading at block boundaries:
  /// advance_all() over this channel alone.
  void advance() noexcept;

  /// Advances every channel by one TTI, bit for bit as advance() on each
  /// in turn: each channel's own stream draws its mobility step, then its
  /// shadowing innovation, then its fading gain. Each kind of draw runs as
  /// one batch over the channels that make it (common::Rng::normals and
  /// exponentials), so a cell's Box-Muller logs and sincos run in SIMD
  /// lanes. The channels must be distinct. Allocates nothing.
  static void advance_all(std::span<UeChannel* const> channels) noexcept;

  /// Current post-fading SINR in dB.
  [[nodiscard]] double sinr_db() const noexcept { return sinr_db_; }
  /// Current CQI in [1, 15].
  [[nodiscard]] std::uint32_t cqi() const noexcept { return cqi_; }
  /// Transport-block bytes one PRB carries this TTI at the current CQI.
  [[nodiscard]] std::uint32_t bytes_per_prb() const noexcept {
    return bytes_per_prb_;
  }
  /// Achievable rate this TTI in bits per PRB (for PF/WF metrics).
  [[nodiscard]] double bits_per_prb() const noexcept {
    return static_cast<double>(bytes_per_prb_) * 8.0;
  }
  [[nodiscard]] double distance_m() const noexcept { return distance_m_; }

  /// Moves the UE to a new distance (mobility / scenario changes).
  void set_distance(double distance_m);

 private:
  /// Stores the dB value of a newly drawn Rayleigh power gain.
  void set_fading_gain(double gain) noexcept;
  /// Recomputes SINR, CQI and bytes/PRB from the current components.
  void refresh_sinr() noexcept;

  double distance_m_;
  ChannelConfig config_;
  double innovation_sigma_;      ///< AR(1) shadowing innovation std-dev
  common::Rng rng_;
  double mean_snr_db_ = 0.0;     ///< distance-dependent component
  double shadowing_db_ = 0.0;    ///< AR(1) state
  double fading_db_ = 0.0;       ///< Rayleigh power gain per block [dB]
  double sinr_db_ = 0.0;
  std::uint32_t cqi_ = 1;
  std::uint32_t bytes_per_prb_ = 0;
  std::int64_t ttis_into_block_ = 0;
  MobilityConfig mobility_{};
  std::int64_t ttis_since_move_ = 0;
};

/// Approximate SINR thresholds [dB] at or above which each CQI is selected
/// (10% BLER operating points). Entries 1..15 rise strictly; entry 0 is
/// never consulted.
inline constexpr std::array<double, 16> kCqiSinrThresholdDb = {
    -100.0, -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9,
    8.1,    10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7};

/// Maps SINR [dB] to CQI index 1..15 (LTE 4-bit CQI): the highest CQI whose
/// threshold the SINR reaches, or 1 if it reaches none (NaN included).
[[nodiscard]] std::uint32_t sinr_to_cqi(double sinr_db) noexcept;

/// Spectral efficiency [bits/symbol] for a CQI index 0..15 (36.213 Table
/// 7.2.3-1; index 0 reports 0). CQI > 15 is a contract violation.
[[nodiscard]] double cqi_spectral_efficiency(std::uint32_t cqi);

/// Transport-block bytes carried by a single PRB in one TTI at `cqi`:
/// 12 subcarriers x 14 symbols, minus ~25% control/reference overhead.
/// CQI > 15 is a contract violation.
[[nodiscard]] std::uint32_t cqi_bytes_per_prb(std::uint32_t cqi);

}  // namespace explora::netsim
