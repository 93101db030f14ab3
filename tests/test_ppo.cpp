// Tests for the PPO agent (ml/ppo): GAE math, action validity, temperature
// behaviour, learning on a contextual bandit, and serialization.
#include "ml/ppo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "netsim/types.hpp"

namespace explora::ml {
namespace {

PpoAgent::Config small_config() {
  PpoAgent::Config config;
  config.state_dim = 4;
  config.hidden_dim = 16;
  config.update_epochs = 4;
  config.minibatch_size = 32;
  return config;
}

Vector zero_state() { return Vector(4, 0.0); }

TEST(RolloutBuffer, GaeMatchesHandComputation) {
  // Two steps, gamma = lambda = 1, no bootstrap: advantage telescopes to
  // (sum of rewards ahead) - value.
  RolloutBuffer buffer;
  buffer.add(Transition{.state = {}, .action = {}, .log_prob = 0.0,
                        .value = 1.0, .reward = 2.0, .terminal = false});
  buffer.add(Transition{.state = {}, .action = {}, .log_prob = 0.0,
                        .value = 0.5, .reward = 1.0, .terminal = true});
  buffer.compute_gae(1.0, 1.0, 0.0);
  ASSERT_EQ(buffer.advantages().size(), 2u);
  // With gamma = lambda = 1, returns telescope to the undiscounted
  // rewards-to-go: return_2 = r2 = 1; return_1 = r1 + r2 = 3.
  EXPECT_NEAR(buffer.returns()[1], 1.0, 1e-12);
  EXPECT_NEAR(buffer.returns()[0], 3.0, 1e-12);
}

TEST(RolloutBuffer, NormalizedAdvantagesHaveZeroMeanUnitVar) {
  RolloutBuffer buffer;
  for (int i = 0; i < 100; ++i) {
    buffer.add(Transition{.state = {}, .action = {}, .log_prob = 0.0,
                          .value = 0.0,
                          .reward = static_cast<double>(i % 7),
                          .terminal = false});
  }
  buffer.compute_gae(0.9, 0.95, 0.0);
  double mean = 0.0;
  for (double a : buffer.advantages()) mean += a;
  mean /= 100.0;
  EXPECT_NEAR(mean, 0.0, 1e-9);
  double var = 0.0;
  for (double a : buffer.advantages()) var += (a - mean) * (a - mean);
  EXPECT_NEAR(var / 100.0, 1.0, 0.05);
}

TEST(RolloutBuffer, TerminalStopsCredit) {
  RolloutBuffer buffer;
  buffer.add(Transition{.state = {}, .action = {}, .log_prob = 0.0,
                        .value = 0.0, .reward = 0.0, .terminal = true});
  buffer.add(Transition{.state = {}, .action = {}, .log_prob = 0.0,
                        .value = 0.0, .reward = 100.0, .terminal = true});
  buffer.compute_gae(1.0, 1.0, 0.0);
  // Step 1's return must not include step 2's reward (terminal boundary).
  EXPECT_NEAR(buffer.returns()[0], 0.0, 1e-12);
  EXPECT_NEAR(buffer.returns()[1], 100.0, 1e-12);
}

TEST(PpoAgent, ActionsAreWithinAlphabet) {
  PpoAgent agent(small_config(), 1);
  common::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const PolicyDecision decision = agent.act(zero_state(), rng);
    EXPECT_LT(decision.action.prb_choice, netsim::prb_catalog().size());
    for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
      EXPECT_LT(decision.action.sched_choice[s],
                netsim::kNumSchedulerPolicies);
    }
    EXPECT_LE(decision.log_prob, 0.0);  // log of probabilities
  }
}

TEST(PpoAgent, GreedyIsDeterministic) {
  PpoAgent agent(small_config(), 3);
  const PolicyDecision a = agent.act_greedy(zero_state());
  const PolicyDecision b = agent.act_greedy(zero_state());
  EXPECT_EQ(a.action, b.action);
  EXPECT_DOUBLE_EQ(a.log_prob, b.log_prob);
}

TEST(PpoAgent, LowTemperatureConvergesToGreedy) {
  PpoAgent agent(small_config(), 5);
  // A non-zero state: with x = 0 every layer outputs its (zero) bias, the
  // logits are all equal and sampling is uniform at any temperature.
  const Vector state{0.8, -0.4, 0.3, 0.9};
  const AgentAction greedy = agent.act_greedy(state).action;
  common::Rng rng(7);
  std::array<double, kNumHeads> cold{};
  cold.fill(0.004);
  int matches = 0;
  for (int i = 0; i < 50; ++i) {
    if (agent.act(state, rng, cold).action == greedy) ++matches;
  }
  EXPECT_GE(matches, 48);  // near-deterministic at T = 0.004
}

TEST(PpoAgent, HeadDistributionsAreNormalized) {
  PpoAgent agent(small_config(), 9);
  const auto heads = agent.head_distributions(zero_state());
  ASSERT_EQ(heads.size(), kNumHeads);
  EXPECT_EQ(heads[0].size(), netsim::prb_catalog().size());
  for (const auto& head : heads) {
    double sum = 0.0;
    for (double p : head) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(PpoAgent, LogProbMatchesHeadProbs) {
  PpoAgent agent(small_config(), 11);
  common::Rng rng(13);
  const PolicyDecision decision = agent.act(zero_state(), rng);
  double expected = 0.0;
  for (double p : decision.head_probs) expected += std::log(p);
  EXPECT_NEAR(decision.log_prob, expected, 1e-9);
}

TEST(PpoAgent, LearnsContextualBandit) {
  // Reward 1 when the first scheduler head matches the sign of state[0],
  // 0 otherwise. A learnable policy should beat the 1/3 random baseline.
  PpoAgent::Config config = small_config();
  config.entropy_coef = 0.002;
  config.learning_rate = 1e-3;
  auto agent = std::make_unique<PpoAgent>(config, 17);
  common::Rng rng(19);

  auto reward_of = [](const Vector& state, const AgentAction& action) {
    const std::size_t target = state[0] > 0.0 ? 2u : 0u;
    return action.sched_choice[0] == target ? 1.0 : 0.0;
  };

  for (int iteration = 0; iteration < 60; ++iteration) {
    RolloutBuffer buffer;
    for (int step = 0; step < 128; ++step) {
      Vector state(4, 0.0);
      state[0] = rng.bernoulli(0.5) ? 1.0 : -1.0;
      const PolicyDecision decision = agent->act(state, rng);
      buffer.add(Transition{.state = state,
                            .action = decision.action,
                            .log_prob = decision.log_prob,
                            .value = agent->value(state),
                            .reward = reward_of(state, decision.action),
                            .terminal = true});
    }
    buffer.compute_gae(config.gamma, config.gae_lambda, 0.0);
    agent->update(buffer);
  }

  // Evaluate greedily on both contexts.
  Vector positive(4, 0.0);
  positive[0] = 1.0;
  Vector negative(4, 0.0);
  negative[0] = -1.0;
  EXPECT_EQ(agent->act_greedy(positive).action.sched_choice[0], 2u);
  EXPECT_EQ(agent->act_greedy(negative).action.sched_choice[0], 0u);
}

TEST(PpoAgent, SerializeRoundTrip) {
  auto original = std::make_unique<PpoAgent>(small_config(), 23);
  common::Writer writer;
  original->serialize(writer);

  auto loaded = std::make_unique<PpoAgent>(small_config(), 777);
  common::Reader reader(writer.buffer());
  loaded->deserialize(reader);

  Vector state{0.3, -0.1, 0.7, 0.0};
  EXPECT_EQ(original->act_greedy(state).action,
            loaded->act_greedy(state).action);
  EXPECT_DOUBLE_EQ(original->value(state), loaded->value(state));
}

TEST(PpoAgent, ValueHeadIsScalarAndFinite) {
  PpoAgent agent(small_config(), 29);
  const double v = agent.value(zero_state());
  EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace explora::ml
