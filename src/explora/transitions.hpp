// Transition taxonomy and the (pi, v) pairs of §4.3: for the c = 2
// multi-modal action there are 2^c = 4 transition classes, and each
// observed transition is paired with the per-(KPI, slice) change of impact
// on the environment — the features EXPLORA distills knowledge from.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "explora/graph.hpp"
#include "netsim/kpi.hpp"
#include "netsim/types.hpp"

namespace explora::core {

/// The 2^c transition classes for the slicing+scheduling action (§6.2).
enum class TransitionClass : std::uint8_t {
  kSelf = 0,       ///< identical action repeated
  kSamePrb = 1,    ///< same PRB allocation, different scheduling
  kSameSched = 2,  ///< same scheduling, different PRB allocation
  kDistinct = 3,   ///< both modes changed
};

inline constexpr std::size_t kNumTransitionClasses = 4;

[[nodiscard]] std::string to_string(TransitionClass cls);

/// Classifies the transition a_t -> a_{t+1}.
[[nodiscard]] TransitionClass classify_transition(
    const netsim::SlicingControl& from, const netsim::SlicingControl& to);

/// One observed transition with its change-of-impact features v:
/// per-(KPI, slice) differences of the window-mean KPI between the state
/// following `from` and the state following `to`, plus per-KPI aggregates
/// for the paper's scatter plots (Fig. 7 / Fig. 13).
struct TransitionEvent {
  netsim::SlicingControl from;
  netsim::SlicingControl to;
  TransitionClass cls = TransitionClass::kSelf;
  /// v: mean-delta per attribute.
  std::array<double, kNumAttributes> delta{};
  /// Jensen-Shannon divergence per attribute.
  std::array<double, kNumAttributes> js_divergence{};

  /// Sum of the deltas of one KPI across slices (scatter-plot axes).
  [[nodiscard]] double kpi_delta(netsim::Kpi kpi) const;
};

/// Accumulates TransitionEvents from a decision trace: feed the enforced
/// action and the per-decision window of KPI reports; consecutive decisions
/// produce one event each.
class TransitionTracker {
 public:
  /// Records one decision step: `action` was enforced and `window` is the
  /// set of KPI reports observed while it was active.
  void record_step(const netsim::SlicingControl& action,
                   std::span<const netsim::KpiReport> window);

  /// Drops the temporal linkage (episode boundary).
  void reset_link() noexcept;

  [[nodiscard]] const std::vector<TransitionEvent>& events() const noexcept {
    return events_;
  }
  /// Share of each transition class among recorded events (sums to 1).
  [[nodiscard]] std::array<double, kNumTransitionClasses> class_shares()
      const;

 private:
  struct StepSnapshot {
    netsim::SlicingControl action;
    std::array<double, kNumAttributes> means{};
    /// Per attribute, one sample per report of the step.
    std::array<std::vector<double>, kNumAttributes> samples;
  };
  /// Refills `snap` for one step, reusing its sample buffers.
  static void snapshot(const netsim::SlicingControl& action,
                       std::span<const netsim::KpiReport> window,
                       StepSnapshot& snap);

  std::vector<TransitionEvent> events_;
  bool has_previous_ = false;
  // The last two steps; they swap after each one, so their sample
  // buffers are reused rather than rebuilt.
  StepSnapshot previous_{};
  StepSnapshot current_{};
};

/// Feature names for the distillation DT, aligned with TransitionEvent::
/// delta ("d_tx_bitrate[eMBB]", ...) followed by js_divergence entries when
/// `include_js` is set.
[[nodiscard]] std::vector<std::string> transition_feature_names(
    bool include_js);

/// Class names aligned with TransitionClass values.
[[nodiscard]] std::vector<std::string> transition_class_names();

}  // namespace explora::core
