// The feature pipeline of the paper's DRL framework (Fig. 2): the input
// matrix I (M x K x L slice-aggregated KPI measurements), per-KPI
// normalization into [-1, 1], and the mapping between the agent's discrete
// action heads and the gNB's SlicingControl.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/serialize.hpp"
#include "ml/matrix.hpp"
#include "netsim/kpi.hpp"
#include "netsim/types.hpp"

namespace explora::ml {

/// M: individual E2 measurements per decision (paper §3.1).
inline constexpr std::size_t kHistory = 10;
/// Flattened input dimension M * K * L = 10 * 3 * 3.
inline constexpr std::size_t kInputDim =
    kHistory * netsim::kNumKpis * netsim::kNumSlices;
/// Latent dimension K * L = 9 (autoencoder output, Fig. 2).
inline constexpr std::size_t kLatentDim =
    netsim::kNumKpis * netsim::kNumSlices;

/// Per-(KPI, slice) affine scaler into [-1, 1], fit on observed data.
/// The paper applies the same basic scaling before the autoencoder (§3.1
/// footnote). Serializable so the training-time fit is reused at inference.
class KpiNormalizer {
 public:
  KpiNormalizer();

  /// Expands the fitted range to cover this report's values.
  void observe(const netsim::KpiReport& report);
  /// Normalizes one raw slice-aggregate value into [-1, 1] (clamped).
  [[nodiscard]] double normalize(netsim::Kpi kpi, netsim::Slice slice,
                                 double value) const;
  /// Inverse transform (for reconstruction/error reporting).
  [[nodiscard]] double denormalize(netsim::Kpi kpi, netsim::Slice slice,
                                   double value) const;

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  struct Range {
    double lo = 0.0;
    double hi = 1.0;
  };
  [[nodiscard]] Range& range(netsim::Kpi kpi, netsim::Slice slice);
  [[nodiscard]] const Range& range(netsim::Kpi kpi,
                                   netsim::Slice slice) const;

  std::array<Range, netsim::kNumKpis * netsim::kNumSlices> ranges_;
};

/// Sliding window over the last M KPI reports that assembles the flattened,
/// normalized input matrix I for the autoencoder. A fixed ring of M
/// reports: pushing overwrites the oldest slot in place.
class InputWindow {
 public:
  /// Pushes the newest report, evicting the oldest beyond M.
  void push(const netsim::KpiReport& report) noexcept;

  /// True once M reports have been observed.
  [[nodiscard]] bool ready() const noexcept { return size_ == kHistory; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Flattened normalized input (size kInputDim), ordered m-major then
  /// KPI-major then slice: i[m][k][l]. Requires ready().
  [[nodiscard]] Vector flatten(const KpiNormalizer& normalizer) const;
  /// The same values written into `out` (size kInputDim).
  void flatten(const KpiNormalizer& normalizer, std::span<double> out) const;

  /// Raw (un-normalized) slice aggregate of the most recent report.
  [[nodiscard]] const netsim::KpiReport& latest() const;
  /// Mean of a KPI's slice aggregate across the window (reward input).
  [[nodiscard]] double window_mean(netsim::Kpi kpi,
                                   netsim::Slice slice) const;

  void clear() noexcept { size_ = 0; }

 private:
  /// The i-th report held, oldest first.
  [[nodiscard]] const netsim::KpiReport& at(std::size_t i) const noexcept {
    return ring_[(oldest_ + i) % kHistory];
  }

  std::array<netsim::KpiReport, kHistory> ring_{};
  std::size_t oldest_ = 0;
  std::size_t size_ = 0;
};

/// The agent's discrete multi-modal action: index into the PRB-split
/// catalogue plus one scheduler choice per slice.
struct AgentAction {
  std::size_t prb_choice = 0;
  std::array<std::size_t, netsim::kNumSlices> sched_choice{};

  friend bool operator==(const AgentAction&, const AgentAction&) = default;
};

/// Converts an AgentAction to the gNB control it encodes.
[[nodiscard]] netsim::SlicingControl to_control(const AgentAction& action);

/// Inverse mapping; throws std::out_of_range when the control's PRB split
/// is not in the catalogue.
[[nodiscard]] AgentAction from_control(const netsim::SlicingControl& control);

}  // namespace explora::ml
