// Tests for the branching DQN agent (ml/dqn) and its interchangeability
// with PPO behind the PolicyAgent interface (the paper's §4.2 claim).
#include "ml/dqn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "ml/ppo.hpp"
#include "netsim/types.hpp"

namespace explora::ml {
namespace {

DqnAgent::Config small_config() {
  DqnAgent::Config config;
  config.state_dim = 4;
  config.hidden_dim = 16;
  config.batch_size = 32;
  config.epsilon_decay_updates = 100;
  return config;
}

TEST(ReplayBuffer, RingEviction) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 5; ++i) {
    buffer.add(DqnExperience{.state = {static_cast<double>(i)},
                             .action = {},
                             .reward = 0.0,
                             .next_state = {0.0},
                             .terminal = false});
  }
  EXPECT_EQ(buffer.size(), 3u);
  common::Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_GE(buffer.sample(rng).state[0], 2.0);  // 0 and 1 were evicted
  }
}

TEST(DqnAgent, GreedyActionsAreValidAndDeterministic) {
  DqnAgent agent(small_config(), 1);
  const Vector state{0.3, -0.2, 0.8, 0.1};
  const PolicyDecision a = agent.act_greedy(state);
  const PolicyDecision b = agent.act_greedy(state);
  EXPECT_EQ(a.action, b.action);
  EXPECT_LT(a.action.prb_choice, netsim::prb_catalog().size());
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    EXPECT_LT(a.action.sched_choice[s], netsim::kNumSchedulerPolicies);
  }
}

TEST(DqnAgent, EpsilonDecaysWithUpdates) {
  DqnAgent agent(small_config(), 3);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  ReplayBuffer buffer;
  common::Rng rng(5);
  buffer.add(DqnExperience{.state = Vector(4, 0.1),
                           .action = {},
                           .reward = 1.0,
                           .next_state = Vector(4, 0.1),
                           .terminal = true});
  for (int i = 0; i < 50; ++i) (void)agent.update(buffer, rng);
  EXPECT_LT(agent.epsilon(), 1.0);
  EXPECT_GT(agent.epsilon(), small_config().epsilon_end - 1e-9);
  for (int i = 0; i < 100; ++i) (void)agent.update(buffer, rng);
  EXPECT_NEAR(agent.epsilon(), small_config().epsilon_end, 1e-12);
}

TEST(DqnAgent, HeadDistributionsAreNormalized) {
  DqnAgent agent(small_config(), 7);
  const auto heads = agent.head_distributions(Vector(4, 0.2));
  ASSERT_EQ(heads.size(), kNumHeads);
  for (const auto& head : heads) {
    double sum = 0.0;
    for (double p : head) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(DqnAgent, BoltzmannSamplingConcentratesWhenCold) {
  DqnAgent agent(small_config(), 9);
  const Vector state{0.5, -0.5, 0.3, -0.3};
  const AgentAction greedy = agent.act_greedy(state).action;
  common::Rng rng(11);
  std::array<double, kNumHeads> cold{};
  cold.fill(0.001);
  int matches = 0;
  for (int i = 0; i < 50; ++i) {
    if (agent.act(state, rng, cold).action == greedy) ++matches;
  }
  EXPECT_GE(matches, 48);
}

TEST(DqnAgent, LearnsContextualBandit) {
  // Same task as the PPO test: reward 1 when the first scheduler head
  // matches the sign of state[0].
  auto agent = std::make_unique<DqnAgent>(small_config(), 13);
  common::Rng rng(17);
  ReplayBuffer buffer(4096);

  auto reward_of = [](const Vector& state, const AgentAction& action) {
    const std::size_t target = state[0] > 0.0 ? 2u : 0u;
    return action.sched_choice[0] == target ? 1.0 : 0.0;
  };

  for (int step = 0; step < 3000; ++step) {
    Vector state(4, 0.0);
    state[0] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const AgentAction action = agent->act_epsilon_greedy(state, rng);
    buffer.add(DqnExperience{.state = state,
                             .action = action,
                             .reward = reward_of(state, action),
                             .next_state = state,
                             .terminal = true});
    if (step >= 64 && step % 2 == 0) (void)agent->update(buffer, rng);
  }

  Vector positive(4, 0.0);
  positive[0] = 1.0;
  Vector negative(4, 0.0);
  negative[0] = -1.0;
  EXPECT_EQ(agent->act_greedy(positive).action.sched_choice[0], 2u);
  EXPECT_EQ(agent->act_greedy(negative).action.sched_choice[0], 0u);
}

TEST(DqnAgent, SerializeRoundTrip) {
  auto original = std::make_unique<DqnAgent>(small_config(), 19);
  common::Writer writer;
  original->serialize(writer);
  auto loaded = std::make_unique<DqnAgent>(small_config(), 555);
  common::Reader reader(writer.buffer());
  loaded->deserialize(reader);
  const Vector state{0.1, 0.2, -0.1, 0.4};
  EXPECT_EQ(original->act_greedy(state).action,
            loaded->act_greedy(state).action);
}

TEST(PolicyAgentInterface, DqnAndPpoAreInterchangeable) {
  // Both agents behind the same base pointer produce valid decisions —
  // the property the DRL xApp depends on.
  PpoAgent::Config ppo_config;
  ppo_config.state_dim = 4;
  ppo_config.hidden_dim = 16;
  const auto ppo = std::make_unique<PpoAgent>(ppo_config, 21);
  const auto dqn = std::make_unique<DqnAgent>(small_config(), 23);
  const std::array<const PolicyAgent*, 2> agents{ppo.get(), dqn.get()};

  common::Rng rng(25);
  std::array<double, kNumHeads> temps{};
  temps.fill(0.7);
  const Vector state{0.4, -0.1, 0.2, 0.6};
  for (const PolicyAgent* agent : agents) {
    const PolicyDecision greedy = agent->act_greedy(state);
    EXPECT_LT(greedy.action.prb_choice, netsim::prb_catalog().size());
    const PolicyDecision sampled = agent->act(state, rng, temps);
    EXPECT_LT(sampled.action.prb_choice, netsim::prb_catalog().size());
    EXPECT_EQ(agent->head_distributions(state).size(), kNumHeads);
  }
}

// The batched chosen-probability path (what SHAP evaluates) must agree
// bit for bit with the single-state distributions, for the Mlp-backed
// override (PPO) and the row-by-row default (DQN), on a probe count
// that is no multiple of any GEMM tile and with the last component of
// every head among the chosen ones.
TEST(PolicyAgentInterface, ChosenProbabilitiesMatchHeadDistributions) {
  const auto ppo = std::make_unique<PpoAgent>(41);
  const auto dqn = std::make_unique<DqnAgent>(47);
  const std::array<const PolicyAgent*, 2> agents{ppo.get(), dqn.get()};

  common::Rng rng(49);
  Matrix probes(37, kLatentDim);
  for (double& v : probes.data()) v = rng.normal(0.0, 1.5);

  const std::size_t last_prb = netsim::prb_catalog().size() - 1;
  const std::size_t last_sched = netsim::kNumSchedulerPolicies - 1;
  const std::array<AgentAction, 3> chosen_actions{
      AgentAction{.prb_choice = 0, .sched_choice = {0, 0, 0}},
      AgentAction{.prb_choice = last_prb / 2, .sched_choice = {1, 0, 2}},
      AgentAction{.prb_choice = last_prb,
                  .sched_choice = {last_sched, last_sched, last_sched}},
  };
  for (const PolicyAgent* agent : agents) {
    for (const AgentAction& chosen : chosen_actions) {
      const Matrix batched = agent->chosen_probabilities(probes, chosen);
      ASSERT_EQ(batched.rows(), probes.rows());
      ASSERT_EQ(batched.cols(), kNumHeads);
      const auto choices = head_choices(chosen);
      for (std::size_t r = 0; r < probes.rows(); ++r) {
        const auto heads = agent->head_distributions(
            probes.data().subspan(r * probes.cols(), probes.cols()));
        for (std::size_t h = 0; h < kNumHeads; ++h) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(batched(r, h)),
                    std::bit_cast<std::uint64_t>(heads[h][choices[h]]))
              << "row " << r << " head " << h;
        }
      }
    }
  }
}

}  // namespace
}  // namespace explora::ml
