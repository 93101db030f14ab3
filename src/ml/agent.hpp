// The agent abstraction the paper's Fig. 5 relies on: EXPLORA (and the
// DRL xApp) only need a policy that maps latent states to multi-modal
// actions — "this approach can be easily applied to a variety of DRL
// models such as DQN, PPO or A3C" (§4.2). PpoAgent and DqnAgent implement
// this interface; the xApps program against it.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "ml/features.hpp"
#include "ml/matrix.hpp"

namespace explora::ml {

/// Number of categorical heads: PRB split + one scheduler per slice.
inline constexpr std::size_t kNumHeads = 1 + netsim::kNumSlices;

/// Offsets of each head's logits (or Q-values) in a policy output row:
/// head h spans [offsets[h], offsets[h + 1]).
[[nodiscard]] std::array<std::size_t, kNumHeads + 1> head_offsets();

/// The component `action` takes in each head, in head order.
[[nodiscard]] std::array<std::size_t, kNumHeads> head_choices(
    const AgentAction& action) noexcept;

/// Softmaxes each head's span of every row of `logits` and returns rows x
/// kNumHeads: the probability of `chosen`'s component of each head,
/// bit-identical to ml::softmax on that span (audited against it). Rows
/// run gemm::kSoftmaxLanes at a time, one per vector lane
/// (gemm::softmax_chosen_lanes on a transposed copy of each row group).
/// `agent` names the caller in the audit's message.
[[nodiscard]] Matrix softmax_chosen(const Matrix& logits,
                                    const AgentAction& chosen,
                                    const char* agent);

/// Policy evaluation output for one state.
struct PolicyDecision {
  AgentAction action{};
  double log_prob = 0.0;
  /// Per-head probability (or normalized preference) of the chosen
  /// component (diagnostics/XAI).
  std::array<double, kNumHeads> head_probs{};
};

/// Inference-side view of a trained multi-modal agent.
class PolicyAgent {
 public:
  virtual ~PolicyAgent() = default;

  /// Deterministic (deployment) action.
  [[nodiscard]] virtual PolicyDecision act_greedy(
      std::span<const double> state) const = 0;

  /// Stochastic action; `temperatures[h]` controls how sharply head h
  /// concentrates around its greedy choice (1.0 = the trained policy /
  /// canonical exploration, lower = colder).
  [[nodiscard]] virtual PolicyDecision act(
      std::span<const double> state, common::Rng& rng,
      const std::array<double, kNumHeads>& temperatures) const = 0;

  /// Per-head distributions over the action components at `state`
  /// (what SHAP explains).
  [[nodiscard]] virtual std::vector<Vector> head_distributions(
      std::span<const double> state) const = 0;

  /// Batched probabilities of `chosen`'s components, the numbers SHAP
  /// explains: row r, column h holds the probability head h assigns to
  /// `chosen`'s component at state row r — bit-identical to
  /// head_distributions(row r)[h][chosen's component of head h]. The
  /// default walks rows through the single-state overload; agents backed
  /// by an Mlp override it to push the whole batch through each layer as
  /// one blocked-GEMM sweep and softmax each head in place (same
  /// arithmetic per row, no per-row allocation).
  [[nodiscard]] virtual Matrix chosen_probabilities(
      const Matrix& states, const AgentAction& chosen) const;
};

}  // namespace explora::ml
