// End-to-end integration tests: full RIC pipeline with the DRL xApp and
// the EXPLORA xApp over the simulated gNB (harness/experiment), plus the
// training pipeline (harness/training) on reduced budgets.
#include <gtest/gtest.h>

#include "common/telemetry.hpp"
#include "explora/xapp.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/ric.hpp"
#include "support/counters.hpp"

namespace explora::harness {
namespace {

netsim::ScenarioConfig tiny_scenario() {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  scenario.seed = 31;
  return scenario;
}

TrainingConfig tiny_training() {
  TrainingConfig config;
  config.collection_steps = 30;
  config.autoencoder.epochs = 5;
  config.ppo_iterations = 2;
  config.steps_per_iteration = 32;
  config.seed = 99;
  return config;
}

/// Shared trained system (training once keeps the suite fast).
const TrainedSystem& tiny_system() {
  static const TrainedSystem system =
      train_system(core::AgentProfile::kHighThroughput, tiny_scenario(),
                   tiny_training());
  return system;
}

TEST(Training, CollectDatasetShapes) {
  const CollectedDataset dataset =
      collect_dataset(tiny_scenario(), tiny_training());
  ASSERT_FALSE(dataset.inputs.empty());
  for (const auto& row : dataset.inputs) {
    EXPECT_EQ(row.size(), ml::kInputDim);
    for (double v : row) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Training, TrainSystemProducesWorkingModels) {
  const TrainedSystem& system = tiny_system();
  ASSERT_NE(system.autoencoder, nullptr);
  ASSERT_NE(system.agent, nullptr);
  const ml::Vector latent =
      system.autoencoder->encode(ml::Vector(ml::kInputDim, 0.0));
  EXPECT_EQ(latent.size(), ml::kLatentDim);
  const auto decision = system.agent->act_greedy(latent);
  EXPECT_LT(decision.action.prb_choice, netsim::prb_catalog().size());
}

TEST(Training, SaveLoadRoundTrip) {
  const TrainedSystem& system = tiny_system();
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_test_system.bin";
  save_system(system, path);
  const TrainedSystem loaded =
      load_system(path, core::AgentProfile::kHighThroughput, tiny_training());
  const ml::Vector probe(ml::kLatentDim, 0.3);
  EXPECT_EQ(system.agent->act_greedy(probe).action,
            loaded.agent->act_greedy(probe).action);
  std::filesystem::remove(path);
}

TEST(Training, LoadRejectsWrongProfile) {
  const TrainedSystem& system = tiny_system();
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_test_system2.bin";
  save_system(system, path);
  EXPECT_THROW(
      (void)load_system(path, core::AgentProfile::kLowLatency,
                        tiny_training()),
      common::SerializeError);
  std::filesystem::remove(path);
}

TEST(Experiment, RunsFullPipelineWithExplora) {
  ExperimentOptions options;
  options.decisions = 30;
  options.deploy_explora = true;
  const ExperimentResult result =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());

  // The first decision block is warm-up (the DRL window is not full yet).
  EXPECT_GE(result.decisions.size(), options.decisions - 2);
  EXPECT_GT(result.graph.node_count(), 0u);
  EXPECT_FALSE(result.embb_bitrate_mbps.empty());
  EXPECT_FALSE(result.transitions.empty());
  for (const auto& record : result.decisions) {
    EXPECT_EQ(record.latent.size(), ml::kLatentDim);
    EXPECT_EQ(record.proposed, record.enforced);  // no steering configured
  }
}

TEST(Experiment, RunsWithoutExplora) {
  ExperimentOptions options;
  options.decisions = 20;
  options.deploy_explora = false;
  const ExperimentResult result =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  EXPECT_GT(result.decisions.size(), 0u);
  EXPECT_EQ(result.graph.node_count(), 0u);  // EXPLORA was not deployed
  EXPECT_FALSE(result.steering.has_value());
}

TEST(Experiment, DeterministicForSameSeeds) {
  ExperimentOptions options;
  options.decisions = 15;
  const ExperimentResult a =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  const ExperimentResult b =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].enforced, b.decisions[i].enforced);
    EXPECT_DOUBLE_EQ(a.decisions[i].reward, b.decisions[i].reward);
  }
  EXPECT_EQ(a.embb_bitrate_mbps, b.embb_bitrate_mbps);
}

TEST(Experiment, SteeringProducesStats) {
  ExperimentOptions options;
  options.decisions = 40;
  core::ActionSteering::Config steering;
  steering.strategy = core::SteeringStrategy::kMaxReward;
  steering.observation_window = 10;
  options.steering = steering;
  const ExperimentResult result =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  ASSERT_TRUE(result.steering.has_value());
  EXPECT_GT(result.steering->decisions, 0u);
  EXPECT_GE(result.steering->suggestions, result.steering->replacements);
}

TEST(Experiment, UeDropChangesPopulation) {
  netsim::ScenarioConfig scenario = tiny_scenario();
  scenario.users_per_slice = {2, 2, 2};
  ExperimentOptions options;
  options.decisions = 12;
  options.drop_ue_at_decision = 6;
  options.drop_slice = netsim::Slice::kMmtc;
  // The run must complete without errors after the population change.
  const ExperimentResult result =
      run_experiment(tiny_system(), scenario, options, tiny_training());
  EXPECT_GT(result.decisions.size(), 0u);
}

TEST(Experiment, OnlineFinetuneRuns) {
  TrainedSystem system =
      train_system(core::AgentProfile::kLowLatency, tiny_scenario(),
                   tiny_training());
  netsim::ScenarioConfig changed = tiny_scenario();
  changed.profile = netsim::TrafficProfile::kTrf2;
  online_finetune(system, changed, tiny_training(), 1);
  // Still functional after finetuning.
  const auto decision =
      system.agent->act_greedy(ml::Vector(ml::kLatentDim, 0.1));
  EXPECT_LT(decision.action.prb_choice, netsim::prb_catalog().size());
}

TEST(Experiment, DqnAgentDrivesTheSamePipeline) {
  // The §4.2 agent-agnosticism claim end to end: a (barely trained) DQN
  // system runs through the identical RIC + EXPLORA pipeline.
  DqnTrainingConfig dqn_training;
  dqn_training.environment_steps = 120;
  dqn_training.warmup_steps = 32;
  const DqnSystem dqn = train_dqn_system(
      core::AgentProfile::kHighThroughput, tiny_scenario(), tiny_training(),
      dqn_training);
  ExperimentOptions options;
  options.decisions = 25;
  const ExperimentResult result = run_experiment(
      dqn.normalizer, *dqn.autoencoder, *dqn.agent, dqn.profile,
      tiny_scenario(), options, tiny_training());
  EXPECT_GT(result.decisions.size(), 0u);
  EXPECT_GT(result.graph.node_count(), 0u);
  EXPECT_FALSE(result.transitions.empty());
}

TEST(Ric, ControlRoutingModes) {
  oran::NearRtRic ric(netsim::make_gnb(tiny_scenario()));
  EXPECT_TRUE(ric.router().has_endpoint("e2term"));
  EXPECT_TRUE(ric.router().has_endpoint("data_repo"));
  // Indications reach the repository by default.
  ric.run_windows(3);
  EXPECT_EQ(ric.repository().report_count(), 3u);
}

TEST(Experiment, FaultInjectedRunStaysExactlyOnce) {
  ExperimentOptions options;
  options.decisions = 12;
  options.reliable = oran::ReliableControlSender::Config{
      .ack_timeout_ticks = 1, .max_retries = 12, .backoff_factor = 1};
  FaultInjectionOptions faults;
  faults.seed = 11;
  faults.control = {.drop = 0.1};
  faults.ack = {.drop = 0.1};
  options.faults = faults;
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const ExperimentResult result =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());

  const telemetry::TelemetrySnapshot& t = result.telemetry;
  EXPECT_GT(t.counter("oran.impairments.dropped.ran_control") +
                t.counter("oran.impairments.dropped.ric_control_ack"),
            0u);                                                 // faults fired
  EXPECT_GT(t.counter("oran.reliable.retransmissions"), 0u);    // repaired
  EXPECT_EQ(t.counter("oran.reliable.expired"), 0u);
  EXPECT_EQ(t.counter("oran.reliable.sent"),
            t.counter("oran.reliable.acked"));                  // none in flight
  EXPECT_EQ(t.counter("oran.e2term.controls_applied"),
            t.counter("oran.drl_xapp.decisions"));              // exactly once
  EXPECT_EQ(t.counter("oran.e2term.controls_rejected"), 0u);
}

TEST(Experiment, FaultInjectedRunIsDeterministic) {
  ExperimentOptions options;
  options.decisions = 10;
  options.reliable = oran::ReliableControlSender::Config{
      .ack_timeout_ticks = 1, .max_retries = 12, .backoff_factor = 1};
  FaultInjectionOptions faults;
  faults.seed = 11;
  faults.control = {.drop = 0.1, .delay = 0.1, .delay_rounds = 1};
  options.faults = faults;
  const ExperimentResult a =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  const ExperimentResult b =
      run_experiment(tiny_system(), tiny_scenario(), options, tiny_training());
  EXPECT_EQ(a.telemetry, b.telemetry);
  EXPECT_EQ(a.embb_bitrate_mbps, b.embb_bitrate_mbps);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].enforced, b.decisions[i].enforced);
  }
}

TEST(Ric, MidRunRepointingLosesNoControls) {
  // Interpose and de-interpose the EXPLORA xApp between report windows
  // (route_control <-> route_control_via): every decision must still be
  // applied exactly once — nothing lost, nothing double-delivered.
  const TrainedSystem& system = tiny_system();
  telemetry::ScopedRegistry registry;
  oran::NearRtRic ric(netsim::make_gnb(tiny_scenario()));

  oran::DrlXapp::Config drl_config;
  drl_config.reports_per_decision = 5;
  drl_config.reliable = oran::ReliableControlSender::Config{};
  oran::DrlXapp drl(drl_config, system.normalizer, *system.autoencoder,
                    *system.agent, ric.router());
  ric.attach_xapp(drl);
  ric.subscribe_indications("drl_xapp");

  core::ExploraXapp::Config xapp_config;
  xapp_config.reports_per_decision = 5;
  xapp_config.reliable = oran::ReliableControlSender::Config{};
  core::ExploraXapp explora(xapp_config, ric.router(), &ric.repository());
  ric.attach_xapp(explora);
  ric.subscribe_indications("explora_xapp");

  ric.route_control("drl_xapp");
  ric.run_windows(15);  // warm-up + direct decisions at windows 10, 15
  EXPECT_EQ(drl.decisions_made(), 2u);

  ric.route_control_via("drl_xapp", "explora_xapp");  // interpose
  ric.run_windows(10);  // decisions at 20, 25 flow through EXPLORA
  EXPECT_EQ(drl.decisions_made(), 4u);
  testfix::expect_counter(registry.registry(), "explora.xapp.controls_seen",
                          2);

  ric.route_control("drl_xapp");  // de-interpose
  ric.run_windows(10);  // decisions at 30, 35 bypass EXPLORA again
  EXPECT_EQ(drl.decisions_made(), 6u);
  testfix::expect_counter(registry.registry(), "explora.xapp.controls_seen",
                          2);

  // Exactly-once end to end across both re-pointings.
  EXPECT_EQ(ric.e2_termination().controls_applied(), 6u);
  EXPECT_EQ(ric.e2_termination().controls_rejected(), 0u);
  const oran::ReliableControlSender* drl_reliable = drl.reliable();
  ASSERT_NE(drl_reliable, nullptr);
  EXPECT_EQ(drl_reliable->in_flight(), 0u);
  const oran::ReliableControlSender* explora_reliable = explora.reliable();
  ASSERT_NE(explora_reliable, nullptr);
  EXPECT_EQ(explora_reliable->in_flight(), 0u);
  const telemetry::Registry& counts = registry.registry();
  testfix::expect_counter(counts, "oran.e2term.duplicate_controls", 0);
  testfix::expect_counter(counts, "explora.xapp.duplicate_controls", 0);
  // Both hops ACKed every control they sent: 6 on the DRL hop, 2 on the
  // EXPLORA hop while it was interposed.
  testfix::expect_counter(counts, "oran.reliable.acked", 8);
  // No traffic was ever silently dropped by the router.
  testfix::expect_counter(counts, "oran.rmr.dropped_unroutable", 0);
}

TEST(Ric, DrlXappDecidesEveryMReports) {
  const TrainedSystem& system = tiny_system();
  oran::NearRtRic ric(netsim::make_gnb(tiny_scenario()));
  oran::DrlXapp::Config config;
  config.reports_per_decision = 5;
  oran::DrlXapp drl(config, system.normalizer, *system.autoencoder,
                    *system.agent, ric.router());
  ric.attach_xapp(drl);
  ric.subscribe_indications("drl_xapp");
  ric.route_control("drl_xapp");

  ric.run_windows(4);
  EXPECT_EQ(drl.decisions_made(), 0u);  // window (10) not full yet
  ric.run_windows(16);                  // 20 total, decisions at 10, 15, 20
  EXPECT_EQ(drl.decisions_made(), 3u);
  EXPECT_EQ(ric.e2_termination().controls_applied(), 3u);
}

}  // namespace
}  // namespace explora::harness
