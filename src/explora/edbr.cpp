#include "explora/edbr.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/format.hpp"

namespace explora::core {

std::string to_string(SteeringStrategy strategy) {
  switch (strategy) {
    case SteeringStrategy::kMaxReward: return "AR1-max-reward";
    case SteeringStrategy::kMinReward: return "AR2-min-reward";
    case SteeringStrategy::kImproveBitrate: return "AR3-improve-bitrate";
  }
  return "?";
}

ActionSteering::ActionSteering(const AttributedGraph& graph,
                               RewardModel reward, Config config)
    : graph_(&graph), reward_(reward), config_(config) {
  EXPLORA_EXPECTS(config.observation_window > 0);
  EXPLORA_EXPECTS(config.exploration_hops >= 1);
}

void ActionSteering::push_measured_reward(double reward) {
  recent_rewards_.push_back(reward);
  while (recent_rewards_.size() > config_.observation_window) {
    recent_rewards_.pop_front();
  }
}

void ActionSteering::collect_candidates(
    const netsim::SlicingControl& previous) {
  candidates_.clear();
  const ActionNode* previous_node = graph_->find(previous);
  if (previous_node == nullptr) return;
  // Algorithm 1 lines 4-10: BFS from n_{t-1}, bounded by the exploration
  // radius (the paper demonstrates the 1-hop worst case). Each hop's
  // frontier is the run of candidates the previous hop appended, and a
  // node is visited once it is a candidate.
  candidates_.push_back(previous_node);
  std::size_t frontier_begin = 0;
  for (std::size_t hop = 0; hop < config_.exploration_hops; ++hop) {
    const std::size_t frontier_end = candidates_.size();
    for (std::size_t i = frontier_begin; i < frontier_end; ++i) {
      for (std::size_t neighbor : graph_->neighbors(candidates_[i]->action)) {
        const ActionNode* candidate = &graph_->node(neighbor);
        if (std::find(candidates_.begin(), candidates_.end(), candidate) ==
            candidates_.end()) {
          candidates_.push_back(candidate);
        }
      }
    }
    if (candidates_.size() == frontier_end) break;
    frontier_begin = frontier_end;
  }
}

SteeringOutcome ActionSteering::steer(
    const netsim::SlicingControl& proposed,
    const std::optional<netsim::SlicingControl>& previous) {
  ++decisions_;
  SteeringOutcome outcome;
  outcome.enforced = proposed;

  const ActionNode* proposed_node = graph_->find(proposed);
  if (proposed_node == nullptr || proposed_node->samples == 0 ||
      recent_rewards_.empty() || !previous.has_value()) {
    outcome.rationale = "no graph knowledge for the proposed action yet";
    return outcome;
  }

  const double expected = reward_.from_node(*proposed_node);
  outcome.expected_reward_proposed = expected;
  outcome.expected_reward_enforced = expected;

  double average = 0.0;
  for (double r : recent_rewards_) average += r;
  average /= static_cast<double>(recent_rewards_.size());

  // Line 1: omega = r(b(a_t)) < avg_{x=t-O-1}^{t-1} r(a_x).
  const bool omega = expected < average;
  // Line 2: strategies fire on (omega, AR1), (!omega, AR2), (omega, AR3).
  const bool fire =
      (omega && config_.strategy == SteeringStrategy::kMaxReward) ||
      (!omega && config_.strategy == SteeringStrategy::kMinReward) ||
      (omega && config_.strategy == SteeringStrategy::kImproveBitrate);
  if (!fire) {
    outcome.rationale = common::format(
        "intent satisfied: expected reward {:.3f} vs recent avg {:.3f}",
        expected, average);
    return outcome;
  }

  collect_candidates(*previous);
  const std::vector<const ActionNode*>& candidates = candidates_;
  if (candidates.empty()) {
    // Line 13: previous action unknown to G -> forward a_t unchanged.
    outcome.rationale = "previous action not in G; forwarding agent action";
    return outcome;
  }
  outcome.triggered = true;

  // Score the candidate set Q per strategy.
  auto bitrate_of = [](const ActionNode& node) {
    double total = 0.0;
    for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
      total += node.attribute_mean(netsim::Kpi::kTxBitrate,
                                   static_cast<netsim::Slice>(l));
    }
    return total;
  };

  const ActionNode* best = nullptr;
  double best_score = 0.0;
  for (const ActionNode* candidate : candidates) {
    if (candidate->samples == 0) continue;
    double score = 0.0;
    switch (config_.strategy) {
      case SteeringStrategy::kMaxReward:
        score = reward_.from_node(*candidate);
        break;
      case SteeringStrategy::kMinReward:
        score = -reward_.from_node(*candidate);
        break;
      case SteeringStrategy::kImproveBitrate:
        score = bitrate_of(*candidate);
        break;
    }
    if (best == nullptr || score > best_score) {
      best = candidate;
      best_score = score;
    }
  }
  if (best == nullptr) {
    outcome.rationale = "no first-hop candidate with recorded consequences";
    return outcome;
  }
  ++suggestions_;
  outcome.suggested = true;

  // Procedure-specific improvement test (lines 16/21/27).
  bool improves = false;
  switch (config_.strategy) {
    case SteeringStrategy::kMaxReward:
      improves = reward_.from_node(*best) > expected;
      break;
    case SteeringStrategy::kMinReward:
      improves = reward_.from_node(*best) < expected;
      break;
    case SteeringStrategy::kImproveBitrate:
      improves = bitrate_of(*best) > bitrate_of(*proposed_node);
      break;
  }
  if (!improves || best->action == proposed) {
    outcome.rationale = common::format(
        "{}: best graph candidate {} does not beat the proposed action",
        to_string(config_.strategy), best->action.to_string());
    return outcome;
  }

  outcome.replaced = true;
  outcome.enforced = best->action;
  outcome.expected_reward_enforced = reward_.from_node(*best);
  ++replacements_;
  ++replaced_out_counts_[proposed];
  ++substituted_in_counts_[best->action];
  outcome.rationale = common::format(
      "{}: replaced {} (expected reward {:.3f} vs recent avg {:.3f}) with "
      "{} (expected reward {:.3f})",
      to_string(config_.strategy), proposed.to_string(), expected, average,
      best->action.to_string(), outcome.expected_reward_enforced);
  return outcome;
}

}  // namespace explora::core
