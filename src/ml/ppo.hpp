// Proximal Policy Optimization with a multi-head categorical policy: one
// head selects the RAN slicing profile (PRB split) and one head per slice
// selects the scheduling policy — the paper's c = 2 multi-modal action.
// Actor and critic are independent MLPs over the autoencoder latent space.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "ml/agent.hpp"
#include "ml/features.hpp"
#include "ml/nn.hpp"

namespace explora::ml {

/// One environment step stored for training.
struct Transition {
  Vector state;                          ///< latent observation
  AgentAction action{};
  double log_prob = 0.0;                 ///< sum over heads at sample time
  double value = 0.0;                    ///< critic estimate at sample time
  double reward = 0.0;
  bool terminal = false;
};

/// On-policy rollout storage with GAE(lambda) post-processing.
class RolloutBuffer {
 public:
  void add(Transition transition);
  void clear() noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] const std::vector<Transition>& steps() const noexcept {
    return steps_;
  }

  /// Computes advantages (normalized) and discounted returns.
  /// @param bootstrap_value critic estimate for the state after the last
  ///        stored step (0 when that step was terminal).
  void compute_gae(double gamma, double lambda, double bootstrap_value);

  [[nodiscard]] const std::vector<double>& advantages() const noexcept {
    return advantages_;
  }
  [[nodiscard]] const std::vector<double>& returns() const noexcept {
    return returns_;
  }

 private:
  std::vector<Transition> steps_;
  std::vector<double> advantages_;
  std::vector<double> returns_;
};

class PpoAgent final : public PolicyAgent {
 public:
  struct Config {
    std::size_t state_dim = kLatentDim;
    std::size_t hidden_dim = 64;
    double gamma = 0.95;
    double gae_lambda = 0.95;
    double clip_epsilon = 0.2;
    double learning_rate = 3e-4;
    double value_coef = 0.5;
    double entropy_coef = 0.01;
    std::size_t update_epochs = 4;
    std::size_t minibatch_size = 64;
  };

  explicit PpoAgent(std::uint64_t seed = 11);
  PpoAgent(Config config, std::uint64_t seed);

  // The Adam optimizers hold pointers into the actor/critic parameters, so
  // the agent is pinned in memory (hold it via std::unique_ptr to move it).
  PpoAgent(const PpoAgent&) = delete;
  PpoAgent& operator=(const PpoAgent&) = delete;
  PpoAgent(PpoAgent&&) = delete;
  PpoAgent& operator=(PpoAgent&&) = delete;

  /// Stochastic action (training / exploration); `rng` supplies the
  /// sampling noise so the agent itself stays const. `temperature` scales
  /// the logits before sampling: 1.0 reproduces the trained policy, lower
  /// values concentrate it toward the greedy action (deployment).
  [[nodiscard]] PolicyDecision act(std::span<const double> state,
                                   common::Rng& rng,
                                   double temperature = 1.0) const;
  /// Per-head temperatures (index 0 = PRB head, 1..3 = scheduler heads).
  /// Deployment uses a colder PRB head than scheduler heads: the slicing
  /// mode has a much larger alphabet, so equal temperatures would make it
  /// disproportionately noisy.
  [[nodiscard]] PolicyDecision act(
      std::span<const double> state, common::Rng& rng,
      const std::array<double, kNumHeads>& temperatures) const override;
  /// Deterministic argmax action (deployment).
  [[nodiscard]] PolicyDecision act_greedy(
      std::span<const double> state) const override;
  /// Critic value of a state. A decision does not run the critic: only
  /// training reads it, for the rollout's advantages.
  [[nodiscard]] double value(std::span<const double> state) const;
  /// Full per-head probability vectors for a state (used by SHAP / XAI).
  [[nodiscard]] std::vector<Vector> head_distributions(
      std::span<const double> state) const override;
  /// Batched: all states flow through the actor as one forward_batch,
  /// then each head is softmaxed in place (softmax_chosen).
  [[nodiscard]] Matrix chosen_probabilities(
      const Matrix& states, const AgentAction& chosen) const override;

  /// One PPO update over the buffer (which must have GAE computed).
  /// Returns the mean total loss of the final epoch.
  double update(const RolloutBuffer& buffer);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  /// Widest actor output a decision holds on the stack.
  static constexpr std::size_t kMaxLogits = 128;

  /// Softmaxes each head's slice of `logits` in place, after dividing it
  /// by its temperature.
  void softmax_heads(std::span<double> logits,
                     const std::array<double, kNumHeads>& temperatures) const;
  /// Splits raw logits into per-head softmax distributions.
  [[nodiscard]] std::vector<Vector> split_softmax(
      std::span<const double> logits,
      const std::array<double, kNumHeads>& temperatures) const;
  /// One decision: `choose(head probabilities)` picks each head's index.
  template <typename Choose>
  [[nodiscard]] PolicyDecision decide(
      std::span<const double> state,
      const std::array<double, kNumHeads>& temperatures, Choose choose) const;

  Config config_;
  common::Rng init_rng_;
  Mlp actor_;
  Mlp critic_;
  AdamOptimizer actor_opt_;
  AdamOptimizer critic_opt_;
  common::Rng shuffle_rng_;

  // Telemetry (ml.ppo.*), bound at construction.
  telemetry::Counter* tm_updates_;
  telemetry::Counter* tm_epochs_;
  telemetry::Counter* tm_minibatches_;
  telemetry::Histogram* tm_rollout_steps_;
  telemetry::Histogram* tm_minibatch_rows_;
};

}  // namespace explora::ml
