// Tests for the A2C agent (ml/a2c) — the synchronous A3C variant, third
// of the paper's §4.2 agent families.
#include "ml/a2c.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "netsim/types.hpp"

namespace explora::ml {
namespace {

A2cAgent::Config small_config() {
  A2cAgent::Config config;
  config.state_dim = 4;
  config.hidden_dim = 16;
  return config;
}

TEST(A2cAgent, GreedyIsDeterministicAndValid) {
  A2cAgent agent(small_config(), 1);
  const Vector state{0.3, -0.4, 0.2, 0.7};
  const PolicyDecision a = agent.act_greedy(state);
  const PolicyDecision b = agent.act_greedy(state);
  EXPECT_EQ(a.action, b.action);
  EXPECT_LT(a.action.prb_choice, netsim::prb_catalog().size());
}

TEST(A2cAgent, HeadDistributionsAreNormalized) {
  A2cAgent agent(small_config(), 3);
  const auto heads = agent.head_distributions(Vector{0.1, 0.2, 0.3, 0.4});
  ASSERT_EQ(heads.size(), kNumHeads);
  for (const auto& head : heads) {
    double sum = 0.0;
    for (double p : head) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(A2cAgent, NStepReturnsStopAtTerminal) {
  // Update must not crash and the critic must move toward the returns:
  // feed the same state with a fixed return and check the value shifts.
  A2cAgent agent(small_config(), 5);
  const Vector state{0.5, 0.5, 0.5, 0.5};
  const double before = agent.value(state);
  std::vector<Transition> rollout;
  for (int i = 0; i < 32; ++i) {
    rollout.push_back(Transition{.state = state,
                                 .action = {},
                                 .log_prob = -1.0,
                                 .value = before,
                                 .reward = 10.0,
                                 .terminal = true});
  }
  for (int epoch = 0; epoch < 200; ++epoch) {
    (void)agent.update(rollout, 0.0);
  }
  // Terminal steps: return = reward = 10; the critic should approach it.
  EXPECT_GT(agent.value(state), before + 1.0);
}

TEST(A2cAgent, LearnsContextualBandit) {
  A2cAgent::Config config = small_config();
  config.entropy_coef = 0.003;
  auto agent = std::make_unique<A2cAgent>(config, 7);
  common::Rng rng(9);
  std::array<double, kNumHeads> unit{};
  unit.fill(1.0);

  auto reward_of = [](const Vector& state, const AgentAction& action) {
    const std::size_t target = state[0] > 0.0 ? 2u : 0u;
    return action.sched_choice[0] == target ? 1.0 : 0.0;
  };

  for (int iteration = 0; iteration < 150; ++iteration) {
    std::vector<Transition> rollout;
    for (int step = 0; step < 64; ++step) {
      Vector state(4, 0.0);
      state[0] = rng.bernoulli(0.5) ? 1.0 : -1.0;
      const PolicyDecision decision = agent->act(state, rng, unit);
      rollout.push_back(Transition{.state = state,
                                   .action = decision.action,
                                   .log_prob = decision.log_prob,
                                   .value = decision.value,
                                   .reward =
                                       reward_of(state, decision.action),
                                   .terminal = true});
    }
    (void)agent->update(rollout, 0.0);
  }

  Vector positive(4, 0.0);
  positive[0] = 1.0;
  Vector negative(4, 0.0);
  negative[0] = -1.0;
  EXPECT_EQ(agent->act_greedy(positive).action.sched_choice[0], 2u);
  EXPECT_EQ(agent->act_greedy(negative).action.sched_choice[0], 0u);
}

TEST(A2cAgent, SerializeRoundTrip) {
  auto original = std::make_unique<A2cAgent>(small_config(), 11);
  common::Writer writer;
  original->serialize(writer);
  auto loaded = std::make_unique<A2cAgent>(small_config(), 999);
  common::Reader reader(writer.buffer());
  loaded->deserialize(reader);
  const Vector state{0.2, -0.6, 0.1, 0.9};
  EXPECT_EQ(original->act_greedy(state).action,
            loaded->act_greedy(state).action);
}

TEST(A2cAgent, ImplementsPolicyAgentInterface) {
  auto agent = std::make_unique<A2cAgent>(small_config(), 13);
  const PolicyAgent* base = agent.get();
  common::Rng rng(15);
  std::array<double, kNumHeads> temps{};
  temps.fill(0.5);
  const Vector state{0.1, 0.1, 0.1, 0.1};
  EXPECT_LT(base->act(state, rng, temps).action.prb_choice,
            netsim::prb_catalog().size());
  EXPECT_EQ(base->head_distributions(state).size(), kNumHeads);
}

}  // namespace
}  // namespace explora::ml
