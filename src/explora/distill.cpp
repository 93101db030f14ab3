#include "explora/distill.hpp"

#include <cmath>
#include <set>

#include "common/contracts.hpp"
#include "common/format.hpp"
#include "common/stats.hpp"

namespace explora::core {

std::string to_string(EffectMagnitude effect) {
  switch (effect) {
    case EffectMagnitude::kNoChange: return "no change in";
    case EffectMagnitude::kAugmentsLightly: return "augments lightly";
    case EffectMagnitude::kAugments: return "augments";
    case EffectMagnitude::kDiminishesLightly: return "diminishes lightly";
    case EffectMagnitude::kDiminishes: return "diminishes";
  }
  return "?";
}

KnowledgeDistiller::KnowledgeDistiller() : KnowledgeDistiller(Config{}) {}

KnowledgeDistiller::KnowledgeDistiller(Config config) : config_(config) {
  EXPLORA_EXPECTS(config.no_change_threshold >= 0.0);
  EXPLORA_EXPECTS(config.strong_threshold > config.no_change_threshold);
}

EffectMagnitude KnowledgeDistiller::classify_effect(
    double mean_delta, double standard_error) const {
  if (standard_error <= 0.0) return EffectMagnitude::kNoChange;
  const double ratio = mean_delta / standard_error;
  if (std::abs(ratio) < config_.no_change_threshold) {
    return EffectMagnitude::kNoChange;
  }
  if (ratio > 0.0) {
    return ratio >= config_.strong_threshold
               ? EffectMagnitude::kAugments
               : EffectMagnitude::kAugmentsLightly;
  }
  return -ratio >= config_.strong_threshold
             ? EffectMagnitude::kDiminishes
             : EffectMagnitude::kDiminishesLightly;
}

xai::Dataset build_transition_dataset(
    const std::vector<TransitionEvent>& events, bool include_js_features) {
  xai::Dataset data;
  data.features.reserve(events.size());
  data.labels.reserve(events.size());
  for (const auto& event : events) {
    xai::Vector row(event.delta.begin(), event.delta.end());
    if (include_js_features) {
      row.insert(row.end(), event.js_divergence.begin(),
                 event.js_divergence.end());
    }
    data.features.push_back(std::move(row));
    data.labels.push_back(static_cast<std::size_t>(event.cls));
  }
  return data;
}

DistilledKnowledge KnowledgeDistiller::distill(
    const std::vector<TransitionEvent>& events) const {
  EXPLORA_EXPECTS(!events.empty());

  DistilledKnowledge out;
  out.feature_names =
      transition_feature_names(config_.include_js_features);
  out.class_names = transition_class_names();

  xai::Dataset data =
      build_transition_dataset(events, config_.include_js_features);

  std::set<std::size_t> distinct(data.labels.begin(), data.labels.end());
  if (distinct.size() >= 2) {
    out.tree = xai::DecisionTreeClassifier(config_.tree);
    out.tree.fit(data, kNumTransitionClasses);
    out.rules = out.tree.to_rules(out.feature_names, out.class_names);
    out.decision_paths =
        out.tree.decision_paths(out.feature_names, out.class_names);
    out.tree_accuracy = out.tree.accuracy(data);
  }

  // ---- per-class effect summaries (Tables 2/4) ----
  // Scale per KPI: std-dev of that KPI's aggregated delta over all events.
  std::array<common::RunningStats, netsim::kNumKpis> kpi_stats;
  for (const auto& event : events) {
    for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
      kpi_stats[k].add(event.kpi_delta(static_cast<netsim::Kpi>(k)));
    }
  }

  std::array<common::RunningStats, kNumTransitionClasses * netsim::kNumKpis>
      class_kpi_stats;
  std::array<std::size_t, kNumTransitionClasses> counts{};
  for (const auto& event : events) {
    const auto c = static_cast<std::size_t>(event.cls);
    ++counts[c];
    for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
      class_kpi_stats[c * netsim::kNumKpis + k].add(
          event.kpi_delta(static_cast<netsim::Kpi>(k)));
    }
  }

  out.summary_text =
      "Summary of explanations (per transition class):\n";
  for (std::size_t c = 0; c < kNumTransitionClasses; ++c) {
    ClassSummary& summary = out.summaries[c];
    summary.cls = static_cast<TransitionClass>(c);
    summary.count = counts[c];
    summary.share =
        static_cast<double>(counts[c]) / static_cast<double>(events.size());
    std::string effects;
    for (std::size_t k = 0; k < netsim::kNumKpis; ++k) {
      const auto& stats = class_kpi_stats[c * netsim::kNumKpis + k];
      const double mean = stats.mean();
      summary.mean_kpi_delta[k] = mean;
      // Standard error of the class mean, with the across-class KPI noise
      // as the variance estimate (robust for small classes).
      const double standard_error =
          stats.count() > 0
              ? kpi_stats[k].stddev() /
                    std::sqrt(static_cast<double>(stats.count()))
              : 0.0;
      summary.effect[k] = classify_effect(mean, standard_error);
      if (!effects.empty()) effects += ", ";
      effects += common::format(
          "{} {}", to_string(summary.effect[k]),
          netsim::to_string(static_cast<netsim::Kpi>(k)));
    }
    if (counts[c] == 0) {
      summary.interpretation = common::format(
          "{}: never observed in this run", to_string(summary.cls));
    } else {
      summary.interpretation = common::format(
          "{} ({:.0f}% of transitions): {}", to_string(summary.cls),
          summary.share * 100.0, effects);
    }
    out.summary_text += "  " + summary.interpretation + "\n";
  }
  return out;
}

}  // namespace explora::core
