// Deep Q-Network with action branching (BDQ-style): one Q-head per action
// mode (PRB split + the three per-slice schedulers) over a shared trunk,
// trained with experience replay and a target network. Demonstrates the
// paper's §4.2 claim that EXPLORA is agnostic to the agent family (DQN,
// PPO, A3C) — DqnAgent plugs into the same DRL xApp and EXPLORA pipeline
// as PpoAgent via the PolicyAgent interface.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "ml/agent.hpp"
#include "ml/nn.hpp"

namespace explora::ml {

/// One replayed experience.
struct DqnExperience {
  Vector state;
  AgentAction action{};
  double reward = 0.0;
  Vector next_state;
  bool terminal = false;
};

/// Uniform-sampling ring replay buffer.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity = 10000);

  void add(DqnExperience experience);
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Uniform sample with replacement; requires size() > 0.
  [[nodiscard]] const DqnExperience& sample(common::Rng& rng) const;

 private:
  std::size_t capacity_;
  std::deque<DqnExperience> buffer_;
};

class DqnAgent final : public PolicyAgent {
 public:
  struct Config {
    std::size_t state_dim = kLatentDim;
    std::size_t hidden_dim = 64;
    double gamma = 0.95;
    double learning_rate = 1e-3;
    std::size_t batch_size = 64;
    /// Online-network updates between target-network syncs.
    std::size_t target_sync_interval = 200;
    /// Epsilon-greedy exploration schedule (linear decay per update).
    double epsilon_start = 1.0;
    double epsilon_end = 0.05;
    std::size_t epsilon_decay_updates = 2000;
  };

  explicit DqnAgent(std::uint64_t seed = 21);
  DqnAgent(Config config, std::uint64_t seed);

  // Pinned like PpoAgent (the optimizer holds parameter pointers).
  DqnAgent(const DqnAgent&) = delete;
  DqnAgent& operator=(const DqnAgent&) = delete;
  DqnAgent(DqnAgent&&) = delete;
  DqnAgent& operator=(DqnAgent&&) = delete;

  // --- PolicyAgent ----------------------------------------------------------
  [[nodiscard]] PolicyDecision act_greedy(
      std::span<const double> state) const override;
  /// Boltzmann sampling over Q-values: head h samples proportionally to
  /// softmax(Q_h / temperature_h).
  [[nodiscard]] PolicyDecision act(
      std::span<const double> state, common::Rng& rng,
      const std::array<double, kNumHeads>& temperatures) const override;
  [[nodiscard]] std::vector<Vector> head_distributions(
      std::span<const double> state) const override;

  // --- training ---------------------------------------------------------------
  /// Epsilon-greedy action for environment interaction (training time).
  [[nodiscard]] AgentAction act_epsilon_greedy(std::span<const double> state,
                                               common::Rng& rng) const;
  /// Current exploration epsilon (decays with updates performed).
  [[nodiscard]] double epsilon() const noexcept;
  /// One minibatch TD update from the replay buffer; returns the batch's
  /// mean TD loss. Requires buffer.size() > 0.
  double update(const ReplayBuffer& buffer, common::Rng& rng);
  [[nodiscard]] std::size_t updates_performed() const noexcept {
    return updates_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  /// Q-values of every head component, from the given network.
  [[nodiscard]] Vector q_values(const Mlp& network,
                                std::span<const double> state) const;
  [[nodiscard]] static AgentAction greedy_from(
      const Vector& q, const std::array<std::size_t, kNumHeads + 1>& offsets);
  /// The Boltzmann view of one Q-value vector: softmax over each head.
  [[nodiscard]] static std::vector<Vector> boltzmann_heads(
      const Vector& q, const std::array<std::size_t, kNumHeads + 1>& offsets);
  void sync_target();

  Config config_;
  common::Rng init_rng_;
  Mlp online_;
  Mlp target_;
  AdamOptimizer optimizer_;
  std::size_t updates_ = 0;
};

}  // namespace explora::ml
