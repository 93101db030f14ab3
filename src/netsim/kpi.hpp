// KPI report structures: the per-slice, per-UE measurements carried by E2
// KPM indications. One report covers one E2 report window (25 TTIs by
// default), and M = 10 consecutive reports form the DRL input matrix I.
//
// Per-UE values live inline (DESIGN.md §15): a report is a fixed-size,
// trivially copyable value, so it moves from the gNB through the RIC to the
// xApps without touching the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/fixed_vector.hpp"
#include "netsim/types.hpp"

namespace explora::netsim {

/// Most UEs one slice may carry: the capacity of a report's per-UE lists.
/// A compile-time contract, not a setting: the paper's largest split is
/// 2/2/2, and at 6 a report is 512 bytes, no more than a two-UE report
/// cost in heap vectors, so a full KPI history holds no more memory.
/// Gnb's constructor enforces it; the wire decoder rejects a longer list.
inline constexpr std::size_t kMaxUesPerSlice = 6;

/// One KPI's per-UE values within a slice.
using PerUeValues = common::FixedVector<double, kMaxUesPerSlice>;

/// Measurements for one slice in one report window. Lists are indexed by
/// the slice-local UE position (stable across a run).
struct SliceKpiReport {
  PerUeValues tx_bitrate_mbps;      ///< per-UE DL bitrate
  PerUeValues tx_packets;           ///< per-UE packets completed
  PerUeValues buffer_bytes;         ///< per-UE buffer at window end

  /// Slice-aggregate value of one KPI (sum over the slice's UEs).
  [[nodiscard]] double aggregate(Kpi kpi) const;

  friend bool operator==(const SliceKpiReport&,
                         const SliceKpiReport&) = default;
};

/// One E2 report: all slices, one window.
struct KpiReport {
  Tick window_end = 0;                      ///< TTI at which the window closed
  PerSlice<SliceKpiReport> slices{};

  /// Slice-aggregate accessor used throughout EXPLORA.
  [[nodiscard]] double value(Kpi kpi, Slice slice) const {
    return slices[static_cast<std::size_t>(slice)].aggregate(kpi);
  }

  friend bool operator==(const KpiReport&, const KpiReport&) = default;
};

static_assert(std::is_trivially_copyable_v<KpiReport>,
              "a KPM report must copy as plain bytes");
static_assert(sizeof(KpiReport) == 512);

}  // namespace explora::netsim
