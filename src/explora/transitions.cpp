#include "explora/transitions.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"

namespace explora::core {

std::string to_string(TransitionClass cls) {
  switch (cls) {
    case TransitionClass::kSelf: return "Self";
    case TransitionClass::kSamePrb: return "Same-PRB";
    case TransitionClass::kSameSched: return "Same-Sched";
    case TransitionClass::kDistinct: return "Distinct";
  }
  return "?";
}

TransitionClass classify_transition(const netsim::SlicingControl& from,
                                    const netsim::SlicingControl& to) {
  const bool same_prb = from.prbs == to.prbs;
  const bool same_sched = from.scheduling == to.scheduling;
  if (same_prb && same_sched) return TransitionClass::kSelf;
  if (same_prb) return TransitionClass::kSamePrb;
  if (same_sched) return TransitionClass::kSameSched;
  return TransitionClass::kDistinct;
}

double TransitionEvent::kpi_delta(netsim::Kpi kpi) const {
  double sum = 0.0;
  for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
    sum += delta[attribute_index(kpi, static_cast<netsim::Slice>(l))];
  }
  return sum;
}

void TransitionTracker::snapshot(const netsim::SlicingControl& action,
                                 std::span<const netsim::KpiReport> window,
                                 StepSnapshot& snap) {
  EXPLORA_EXPECTS(!window.empty());
  snap.action = action;
  for (std::vector<double>& samples : snap.samples) samples.clear();
  for (const auto& report : window) {
    for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
      for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
        const auto kpi = static_cast<netsim::Kpi>(k);
        const auto slice = static_cast<netsim::Slice>(l);
        snap.samples[attribute_index(kpi, slice)].push_back(
            report.value(kpi, slice));
      }
    }
  }
  for (std::size_t p = 0; p < kNumAttributes; ++p) {
    double sum = 0.0;
    for (double v : snap.samples[p]) sum += v;
    snap.means[p] = sum / static_cast<double>(snap.samples[p].size());
  }
}

void TransitionTracker::record_step(
    const netsim::SlicingControl& action,
    std::span<const netsim::KpiReport> window) {
  snapshot(action, window, current_);
  if (has_previous_) {
    TransitionEvent event;
    event.from = previous_.action;
    event.to = current_.action;
    event.cls = classify_transition(event.from, event.to);
    for (std::size_t p = 0; p < kNumAttributes; ++p) {
      event.delta[p] = current_.means[p] - previous_.means[p];
      event.js_divergence[p] = common::jensen_shannon_divergence(
          previous_.samples[p], current_.samples[p]);
    }
    events_.push_back(std::move(event));
  }
  std::swap(previous_, current_);
  has_previous_ = true;
}

void TransitionTracker::reset_link() noexcept { has_previous_ = false; }

std::array<double, kNumTransitionClasses> TransitionTracker::class_shares()
    const {
  std::array<double, kNumTransitionClasses> shares{};
  if (events_.empty()) return shares;
  for (const auto& event : events_) {
    shares[static_cast<std::size_t>(event.cls)] += 1.0;
  }
  for (double& s : shares) s /= static_cast<double>(events_.size());
  return shares;
}

std::vector<std::string> transition_feature_names(bool include_js) {
  std::vector<std::string> names;
  names.reserve(include_js ? 2 * kNumAttributes : kNumAttributes);
  for (std::size_t p = 0; p < kNumAttributes; ++p) {
    names.push_back(common::format("d_{}", attribute_name(p)));
  }
  if (include_js) {
    for (std::size_t p = 0; p < kNumAttributes; ++p) {
      names.push_back(common::format("js_{}", attribute_name(p)));
    }
  }
  return names;
}

std::vector<std::string> transition_class_names() {
  std::vector<std::string> names;
  names.reserve(kNumTransitionClasses);
  for (std::size_t c = 0; c < kNumTransitionClasses; ++c) {
    names.push_back(to_string(static_cast<TransitionClass>(c)));
  }
  return names;
}

}  // namespace explora::core
