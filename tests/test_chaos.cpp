// Tests for the chaos harness (harness/chaos): sweep mechanics, the
// robustness contract evaluation, and byte-identical JSON reports for the
// same seed + fault configuration.
#include "harness/chaos.hpp"

#include <gtest/gtest.h>

#include "harness/training.hpp"

namespace explora::harness {
namespace {

netsim::ScenarioConfig chaos_scenario() {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  scenario.seed = 31;
  return scenario;
}

TrainingConfig chaos_training() {
  TrainingConfig config;
  config.collection_steps = 30;
  config.autoencoder.epochs = 5;
  config.ppo_iterations = 2;
  config.steps_per_iteration = 32;
  config.seed = 99;
  return config;
}

const TrainedSystem& chaos_system() {
  static const TrainedSystem system = train_system(
      core::AgentProfile::kHighThroughput, chaos_scenario(), chaos_training());
  return system;
}

ChaosConfig small_config() {
  ChaosConfig config;
  config.scenario = chaos_scenario();
  config.training = chaos_training();
  config.decisions = 8;
  config.points = {
      {.label = "drop10", .control_drop = 0.10, .ack_drop = 0.10},
      {.label = "kpm-gap", .indication_drop = 0.20},
  };
  return config;
}

TEST(ChaosHarness, SweepSatisfiesRobustnessContract) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const ChaosReport report = run_chaos_sweep(chaos_system(), small_config());
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_TRUE(report.all_exactly_once());
  EXPECT_TRUE(report.all_bounded());
  for (const ChaosRow& row : report.rows) {
    EXPECT_EQ(row.telemetry.counter("oran.e2term.controls_applied"),
              row.telemetry.counter("oran.drl_xapp.decisions"));
    EXPECT_EQ(row.telemetry.counter("oran.reliable.expired"), 0u);
    EXPECT_EQ(controls_in_flight(row.telemetry), 0u);
    EXPECT_LE(row.degradation, 0.20);
  }
  // The KPM-gap point must push the EXPLORA watchdog through at least one
  // degraded episode and back out.
  const telemetry::TelemetrySnapshot& gap = report.rows[1].telemetry;
  EXPECT_GT(gap.counter("explora.xapp.degraded_episodes"), 0u);
  EXPECT_GT(gap.counter("explora.xapp.indications_missed"), 0u);
}

TEST(ChaosHarness, ReportJsonIsByteIdenticalAcrossRuns) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const ChaosReport a = run_chaos_sweep(chaos_system(), small_config());
  const ChaosReport b = run_chaos_sweep(chaos_system(), small_config());
  EXPECT_EQ(a.to_json(), b.to_json());
  // The JSON is well-formed enough to carry the headline fields.
  EXPECT_NE(a.to_json().find("\"baseline_reward\""), std::string::npos);
  EXPECT_NE(a.to_json().find("\"exactly_once\": true"), std::string::npos);
  // Rows carry their counters under their registry names.
  EXPECT_NE(a.to_json().find("\"oran.reliable.retransmissions\": "),
            std::string::npos);
}

TEST(ChaosHarness, DefaultFaultPointsCoverAllFaultKinds) {
  const auto points = default_fault_points();
  ASSERT_GE(points.size(), 4u);
  bool has_drop = false, has_delay = false, has_dup = false, has_gap = false;
  for (const auto& p : points) {
    has_drop = has_drop || p.control_drop > 0.0;
    has_delay = has_delay || p.control_delay > 0.0;
    has_dup = has_dup || p.control_duplicate > 0.0;
    has_gap = has_gap || p.indication_drop > 0.0;
  }
  EXPECT_TRUE(has_drop);
  EXPECT_TRUE(has_delay);
  EXPECT_TRUE(has_dup);
  EXPECT_TRUE(has_gap);
}

}  // namespace
}  // namespace explora::harness
