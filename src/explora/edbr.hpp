// The Explanation-Driven Behavior Refiner (EDBR, §4.4/§5.2, Algorithm 1):
// intent-based action steering. When the agent proposes an action whose
// expected reward (from the attributed graph) violates the operator's
// intent, EDBR explores the first-hop neighbourhood of the previous
// action's node and substitutes a better-known action:
//   AR1 "Max-reward"      — replace expected-low-reward actions with the
//                           neighbour of highest expected reward,
//   AR2 "Min-reward"      — replace expected-high-reward actions with the
//                           neighbour of lowest expected reward (favours
//                           the URLLC slice under the LL agent),
//   AR3 "Improve bitrate" — replace expected-low-reward actions with the
//                           neighbour of highest expected tx_bitrate.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "explora/graph.hpp"
#include "explora/reward.hpp"
#include "netsim/types.hpp"

namespace explora::core {

enum class SteeringStrategy : std::uint8_t {
  kMaxReward = 0,      ///< AR 1
  kMinReward = 1,      ///< AR 2
  kImproveBitrate = 2, ///< AR 3
};

[[nodiscard]] std::string to_string(SteeringStrategy strategy);

/// Result of one steering decision.
struct SteeringOutcome {
  netsim::SlicingControl enforced;  ///< action actually sent to the RAN
  bool triggered = false;   ///< the omega condition fired and G was usable
  bool suggested = false;   ///< the graph proposed a replacement candidate
  bool replaced = false;    ///< the candidate was enforced instead of a_t
  double expected_reward_proposed = 0.0;
  double expected_reward_enforced = 0.0;
  std::string rationale;    ///< human-readable explanation of the decision
};

class ActionSteering {
 public:
  struct Config {
    SteeringStrategy strategy = SteeringStrategy::kMaxReward;
    /// O: number of past measured rewards averaged in the omega test.
    std::size_t observation_window = 10;
    /// Graph-exploration radius for the candidate set Q. The paper limits
    /// the demonstration to the first hop ("worst-case scenario", §5.2);
    /// larger radii consider actions reachable through longer observed
    /// action sequences (see bench_ablation_khop).
    std::size_t exploration_hops = 1;
  };

  /// @param graph the (live) attributed graph; non-owning.
  /// @param reward reward model matching the agent profile.
  ActionSteering(const AttributedGraph& graph, RewardModel reward,
                 Config config);

  /// Records the measured reward of the latest completed decision window.
  void push_measured_reward(double reward);

  /// Algorithm 1: decides whether to forward `proposed` or substitute it,
  /// given the previously enforced action (if any).
  [[nodiscard]] SteeringOutcome steer(
      const netsim::SlicingControl& proposed,
      const std::optional<netsim::SlicingControl>& previous);

  // --- statistics for Fig. 15 -------------------------------------------
  [[nodiscard]] std::uint64_t decisions() const noexcept {
    return decisions_;
  }
  [[nodiscard]] std::uint64_t suggestions() const noexcept {
    return suggestions_;
  }
  [[nodiscard]] std::uint64_t replacements() const noexcept {
    return replacements_;
  }
  /// How many times each action was substituted *out* (paper: rarely > 3
  /// for the same action, i.e. steering is not shielding).
  [[nodiscard]] const std::map<netsim::SlicingControl, std::uint64_t>&
  replacement_counts() const noexcept {
    return replaced_out_counts_;
  }
  /// How many times each graph action was substituted *in*.
  [[nodiscard]] const std::map<netsim::SlicingControl, std::uint64_t>&
  substitute_counts() const noexcept {
    return substituted_in_counts_;
  }

 private:
  /// Fills candidates_ with the candidate set Q: the previous node plus
  /// everything reachable within config_.exploration_hops observed
  /// transitions, in breadth-first order.
  void collect_candidates(const netsim::SlicingControl& previous);

  const AttributedGraph* graph_;
  RewardModel reward_;
  Config config_;
  std::deque<double> recent_rewards_;
  std::uint64_t decisions_ = 0;
  std::uint64_t suggestions_ = 0;
  std::uint64_t replacements_ = 0;
  std::map<netsim::SlicingControl, std::uint64_t> replaced_out_counts_;
  std::map<netsim::SlicingControl, std::uint64_t> substituted_in_counts_;
  /// collect_candidates' output, reused from decision to decision.
  std::vector<const ActionNode*> candidates_;
};

}  // namespace explora::core
