// User equipment: a downlink RLC-style byte queue fed by a traffic source
// and drained by the slice scheduler, plus the per-window KPI counters the
// E2 agent reports (tx_bitrate, tx_packets, DWL_buffer_size).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/channel.hpp"
#include "netsim/traffic.hpp"
#include "netsim/types.hpp"

namespace explora::netsim {

/// Per-UE KPI counters accumulated over one E2 report window.
struct UeWindowCounters {
  std::uint64_t tx_bytes = 0;      ///< bytes served in the window
  std::uint32_t tx_packets = 0;    ///< packets fully drained in the window
  std::uint64_t dropped_bytes = 0; ///< arrivals discarded on buffer overflow
};

/// One downlink user attached to a slice.
class Ue {
 public:
  /// @param id unique UE identifier within the gNB.
  /// @param slice slice membership.
  /// @param channel time-varying channel for this UE.
  /// @param traffic downlink source feeding the buffer (non-null).
  /// @param buffer_capacity_bytes RLC buffer cap; excess arrivals drop.
  Ue(std::uint32_t id, Slice slice, UeChannel channel,
     std::unique_ptr<TrafficSource> traffic,
     std::uint64_t buffer_capacity_bytes = 2'000'000);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] Slice slice() const noexcept { return slice_; }
  [[nodiscard]] UeChannel& channel() noexcept { return channel_; }
  [[nodiscard]] const UeChannel& channel() const noexcept { return channel_; }

  /// Pulls this TTI's arrivals into the buffer. The caller advances the
  /// channel first (Gnb::run_tti, through UeChannel::advance_all).
  void pull_arrivals(Tick now);

  /// Serves up to `bytes` from the head of the buffer; returns bytes
  /// actually transmitted and updates window counters.
  std::uint64_t serve(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t buffer_bytes() const noexcept {
    return buffer_bytes_;
  }
  [[nodiscard]] bool has_data() const noexcept { return buffer_bytes_ > 0; }

  /// Snapshots and resets the window counters (called at each E2 report).
  [[nodiscard]] UeWindowCounters harvest_window() noexcept;

  /// Average served throughput tracker used by the PF scheduler [bits/TTI].
  [[nodiscard]] double& pf_average() noexcept { return pf_average_; }

 private:
  /// Appends one packet to the tail of the ring, doubling it when full.
  void push_packet(std::uint32_t bytes);

  std::uint32_t id_;
  Slice slice_;
  UeChannel channel_;
  std::unique_ptr<TrafficSource> traffic_;
  std::uint64_t buffer_capacity_;

  // FIFO of per-packet remaining bytes: a power-of-two ring that doubles
  // when full and never shrinks, so once it has held the deepest backlog
  // the TTI loop stops allocating.
  std::vector<std::uint32_t> packets_;
  std::size_t head_ = 0;   ///< slot of the oldest queued packet
  std::size_t queued_ = 0; ///< packets in the ring
  std::uint64_t buffer_bytes_ = 0;
  UeWindowCounters window_{};
  double pf_average_ = 1.0;
};

}  // namespace explora::netsim
