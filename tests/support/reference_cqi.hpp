// Test-only oracle: SINR-to-CQI as a descending scan over the thresholds
// that stops at the first one the SINR reaches. It is the literal reading
// of "the highest CQI whose threshold is reached". The differential test
// in test_channel.cpp checks the production sinr_to_cqi, which counts the
// thresholds reached without branching, against it.
#pragma once

#include <cstdint>

#include "netsim/channel.hpp"

namespace explora::netsim::reference {

inline std::uint32_t sinr_to_cqi(double sinr_db) {
  for (std::uint32_t cqi = 15; cqi >= 1; --cqi) {
    if (sinr_db >= kCqiSinrThresholdDb[cqi]) return cqi;
  }
  return 1;
}

}  // namespace explora::netsim::reference
