#include "netsim/types.hpp"

#include "common/format.hpp"
#include <numeric>
#include <stdexcept>

#include "common/contracts.hpp"

namespace explora::netsim {

std::string to_string(Slice s) {
  switch (s) {
    case Slice::kEmbb: return "eMBB";
    case Slice::kMmtc: return "mMTC";
    case Slice::kUrllc: return "URLLC";
  }
  return "?";
}

std::string to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kRoundRobin: return "RR";
    case SchedulerPolicy::kWaterfilling: return "WF";
    case SchedulerPolicy::kProportionalFair: return "PF";
  }
  return "?";
}

std::string to_string(Kpi k) {
  switch (k) {
    case Kpi::kTxBitrate: return "tx_bitrate";
    case Kpi::kTxPackets: return "tx_packets";
    case Kpi::kBufferSize: return "DWL_buffer_size";
  }
  return "?";
}

std::string SlicingControl::to_string() const {
  return common::format("([{}, {}, {}], [{}, {}, {}])", prbs[0], prbs[1],
                     prbs[2], static_cast<int>(scheduling[0]),
                     static_cast<int>(scheduling[1]),
                     static_cast<int>(scheduling[2]));
}

bool operator<(const SlicingControl& a, const SlicingControl& b) {
  if (a.prbs != b.prbs) return a.prbs < b.prbs;
  return a.scheduling < b.scheduling;
}

bool is_valid_control(const SlicingControl& control) noexcept {
  const std::uint32_t total =
      std::accumulate(control.prbs.begin(), control.prbs.end(), 0u);
  if (total == 0 || total > kTotalPrbs) return false;
  for (const SchedulerPolicy policy : control.scheduling) {
    if (static_cast<std::size_t>(policy) >= kNumSchedulerPolicies) {
      return false;
    }
  }
  return true;
}

std::size_t SlicingControlHash::operator()(
    const SlicingControl& a) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (auto prb : a.prbs) mix(prb);
  for (auto pol : a.scheduling) mix(static_cast<std::uint64_t>(pol));
  return static_cast<std::size_t>(h);
}

const std::vector<PerSlice<std::uint32_t>>& prb_catalog() {
  static const std::vector<PerSlice<std::uint32_t>> catalog = [] {
    std::vector<PerSlice<std::uint32_t>> entries;
    // eMBB gets the coarse share (it carries the broadband load), mMTC a
    // small share, URLLC the remainder. Steps of 6/6 PRBs keep the action
    // space at a size comparable to ColO-RAN's slicing profiles.
    for (std::uint32_t embb = 6; embb <= 42; embb += 6) {
      for (std::uint32_t mmtc = 3; mmtc <= 27; mmtc += 6) {
        const std::uint32_t used = embb + mmtc;
        if (used + 2 > kTotalPrbs) continue;
        const std::uint32_t urllc = kTotalPrbs - used;
        entries.push_back({embb, mmtc, urllc});
      }
    }
    EXPLORA_ENSURES(!entries.empty());
    for (const auto& e : entries) {
      EXPLORA_ENSURES(std::accumulate(e.begin(), e.end(), 0u) == kTotalPrbs);
    }
    return entries;
  }();
  return catalog;
}

std::size_t prb_catalog_index(const PerSlice<std::uint32_t>& prbs) {
  const auto& catalog = prb_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (catalog[i] == prbs) return i;
  }
  throw std::out_of_range(common::format(
      "PRB split [{}, {}, {}] is not in the slicing catalogue", prbs[0],
      prbs[1], prbs[2]));
}

}  // namespace explora::netsim
