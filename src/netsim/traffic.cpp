#include "netsim/traffic.hpp"

#include "common/contracts.hpp"

namespace explora::netsim {

namespace {

constexpr double kTtisPerSecond = 1000.0;

}  // namespace

CbrSource::CbrSource(double rate_bps, std::uint32_t packet_bytes)
    : rate_bps_(rate_bps), packet_bytes_(packet_bytes) {
  EXPLORA_EXPECTS(rate_bps > 0.0);
  EXPLORA_EXPECTS(packet_bytes > 0);
}

ArrivalBatch CbrSource::arrivals(Tick /*now*/) {
  carry_bytes_ += rate_bps_ / 8.0 / kTtisPerSecond;
  ArrivalBatch batch;
  while (carry_bytes_ >= static_cast<double>(packet_bytes_)) {
    carry_bytes_ -= static_cast<double>(packet_bytes_);
    batch.bytes += packet_bytes_;
    ++batch.packets;
  }
  return batch;
}

PoissonSource::PoissonSource(double rate_bps, std::uint32_t packet_bytes,
                             common::Rng rng)
    : rate_bps_(rate_bps),
      packet_bytes_(packet_bytes),
      packets_per_tti_(rate_bps / 8.0 / static_cast<double>(packet_bytes) /
                       kTtisPerSecond),
      rng_(rng) {
  EXPLORA_EXPECTS(rate_bps > 0.0);
  EXPLORA_EXPECTS(packet_bytes > 0);
}

ArrivalBatch PoissonSource::arrivals(Tick /*now*/) {
  const std::uint32_t packets = packets_per_tti_(rng_);
  return ArrivalBatch{
      .bytes = static_cast<std::uint64_t>(packets) * packet_bytes_,
      .packets = packets,
  };
}

std::string to_string(TrafficProfile profile) {
  return profile == TrafficProfile::kTrf1 ? "TRF1" : "TRF2";
}

std::unique_ptr<TrafficSource> make_traffic_source(TrafficProfile profile,
                                                   Slice slice,
                                                   common::Rng rng) {
  // Rates from §6.1; packet sizes: 1500 B broadband MTU for eMBB, small
  // 125 B datagrams for the machine-type and low-latency slices.
  switch (slice) {
    case Slice::kEmbb: {
      const double rate = profile == TrafficProfile::kTrf1 ? 4e6 : 2e6;
      return std::make_unique<CbrSource>(rate, 1500);
    }
    case Slice::kMmtc: {
      const double rate = profile == TrafficProfile::kTrf1 ? 44.6e3 : 133.9e3;
      return std::make_unique<PoissonSource>(rate, 125, rng);
    }
    case Slice::kUrllc: {
      const double rate = profile == TrafficProfile::kTrf1 ? 89.3e3 : 178.6e3;
      return std::make_unique<PoissonSource>(rate, 125, rng);
    }
  }
  EXPLORA_ASSERT(false);
  return nullptr;
}

}  // namespace explora::netsim
