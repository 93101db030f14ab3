#include "netsim/kpi.hpp"

#include <numeric>

#include "common/contracts.hpp"

namespace explora::netsim {

double SliceKpiReport::aggregate(Kpi kpi) const {
  const PerUeValues* values = nullptr;
  switch (kpi) {
    case Kpi::kTxBitrate: values = &tx_bitrate_mbps; break;
    case Kpi::kTxPackets: values = &tx_packets; break;
    case Kpi::kBufferSize: values = &buffer_bytes; break;
  }
  if (values == nullptr) return 0.0;
  // Every KPI the E2 stream carries is a count or a rate: negative or
  // non-finite values mean upstream state corruption, not a valid report.
  EXPLORA_AUDIT_MSG(contracts::all_non_negative(*values),
                    "KPI {} carries a negative or non-finite per-UE value",
                    to_string(kpi));
  const double total =
      std::accumulate(values->begin(), values->end(), 0.0);
  EXPLORA_ENSURES_MSG(!(total < 0.0), "KPI {} aggregated to {}",
                      to_string(kpi), total);
  return total;
}

}  // namespace explora::netsim
