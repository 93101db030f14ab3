// Downlink traffic sources replacing the paper's MGEN generator: constant
// bitrate (eMBB) and Poisson packet arrivals (mMTC / URLLC), with the exact
// rates of the paper's TRF1 and TRF2 profiles.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "netsim/types.hpp"

namespace explora::netsim {

/// Bytes arriving for one UE in one TTI.
struct ArrivalBatch {
  std::uint64_t bytes = 0;
  std::uint32_t packets = 0;
};

/// Abstract downlink packet source, pulled once per TTI.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;
  /// Packets/bytes arriving during the TTI starting at `now`.
  [[nodiscard]] virtual ArrivalBatch arrivals(Tick now) = 0;
  /// Nominal offered load in bits per second (for reporting).
  [[nodiscard]] virtual double offered_bps() const noexcept = 0;
};

/// Constant-bitrate source emitting fixed-size packets at a fixed cadence.
class CbrSource final : public TrafficSource {
 public:
  /// @param rate_bps target bitrate (> 0).
  /// @param packet_bytes size of each packet (> 0).
  CbrSource(double rate_bps, std::uint32_t packet_bytes);

  [[nodiscard]] ArrivalBatch arrivals(Tick now) override;
  [[nodiscard]] double offered_bps() const noexcept override {
    return rate_bps_;
  }

 private:
  double rate_bps_;
  std::uint32_t packet_bytes_;
  double carry_bytes_ = 0.0;  ///< fractional accumulation between TTIs
};

/// Poisson packet-arrival source (memoryless inter-arrivals). The
/// per-TTI mean never changes, so its sampler is built once.
class PoissonSource final : public TrafficSource {
 public:
  /// @param rate_bps average offered bitrate (> 0).
  /// @param packet_bytes size of each packet (> 0).
  /// @param rng dedicated arrival stream.
  PoissonSource(double rate_bps, std::uint32_t packet_bytes, common::Rng rng);

  [[nodiscard]] ArrivalBatch arrivals(Tick now) override;
  [[nodiscard]] double offered_bps() const noexcept override {
    return rate_bps_;
  }

 private:
  double rate_bps_;
  std::uint32_t packet_bytes_;
  common::PoissonSampler packets_per_tti_;
  common::Rng rng_;
};

/// The paper's traffic profiles (§6.1).
enum class TrafficProfile : std::uint8_t {
  kTrf1 = 0,  ///< 4 Mbit/s CBR eMBB; 44.6 / 89.3 kbit/s Poisson mMTC/URLLC
  kTrf2 = 1,  ///< 2 Mbit/s CBR eMBB; 133.9 / 178.6 kbit/s Poisson mMTC/URLLC
};

[[nodiscard]] std::string to_string(TrafficProfile profile);

/// Builds the per-slice source prescribed by `profile` for one UE.
[[nodiscard]] std::unique_ptr<TrafficSource> make_traffic_source(
    TrafficProfile profile, Slice slice, common::Rng rng);

}  // namespace explora::netsim
