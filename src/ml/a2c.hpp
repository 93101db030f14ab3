// Advantage Actor-Critic with multi-head categorical policy — the
// (synchronous) variant of A3C, the third agent family the paper names in
// §4.2 ("DQN, PPO or A3C"). Same multi-modal action structure as PpoAgent
// but with the vanilla policy-gradient update (no ratio clipping, single
// pass per rollout) and n-step returns instead of GAE.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "ml/agent.hpp"
#include "ml/nn.hpp"
#include "ml/ppo.hpp"  // Transition

namespace explora::ml {

class A2cAgent final : public PolicyAgent {
 public:
  struct Config {
    std::size_t state_dim = kLatentDim;
    std::size_t hidden_dim = 64;
    double gamma = 0.95;
    double learning_rate = 7e-4;
    double value_coef = 0.5;
    double entropy_coef = 0.01;
  };

  explicit A2cAgent(std::uint64_t seed = 31);
  A2cAgent(Config config, std::uint64_t seed);

  // Pinned like the other agents (optimizers hold parameter pointers).
  A2cAgent(const A2cAgent&) = delete;
  A2cAgent& operator=(const A2cAgent&) = delete;
  A2cAgent(A2cAgent&&) = delete;
  A2cAgent& operator=(A2cAgent&&) = delete;

  // --- PolicyAgent ----------------------------------------------------------
  [[nodiscard]] PolicyDecision act_greedy(
      std::span<const double> state) const override;
  [[nodiscard]] PolicyDecision act(
      std::span<const double> state, common::Rng& rng,
      const std::array<double, kNumHeads>& temperatures) const override;
  [[nodiscard]] std::vector<Vector> head_distributions(
      std::span<const double> state) const override;
  /// Batched: all states flow through the actor as one forward_batch,
  /// then each head is softmaxed in place (softmax_chosen).
  [[nodiscard]] Matrix chosen_probabilities(
      const Matrix& states, const AgentAction& chosen) const override;

  [[nodiscard]] double value(std::span<const double> state) const;

  /// One synchronous actor-critic update over an n-step rollout (oldest
  /// first). `bootstrap_value` is the critic estimate of the state after
  /// the last step (0 when terminal). Returns the mean loss.
  double update(const std::vector<Transition>& rollout,
                double bootstrap_value);

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  [[nodiscard]] std::vector<Vector> split_softmax(
      std::span<const double> logits,
      const std::array<double, kNumHeads>& temperatures) const;
  [[nodiscard]] PolicyDecision decide(
      std::span<const double> state, common::Rng* rng,
      const std::array<double, kNumHeads>& temperatures) const;

  Config config_;
  common::Rng init_rng_;
  Mlp actor_;
  Mlp critic_;
  AdamOptimizer actor_opt_;
  AdamOptimizer critic_opt_;
};

}  // namespace explora::ml
