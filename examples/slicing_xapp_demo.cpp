// Full O-RAN pipeline walkthrough (Fig. 6 of the paper): a near-RT RIC
// with E2 termination, data repository, the DRL slicing xApp and the
// EXPLORA xApp interposed on the RAN-control route. Shows the message
// plumbing explicitly: route configuration, the run's telemetry counters,
// and the (state, action, explanation) records EXPLORA archives for the
// operator.
//
// Build & run:  ./build/examples/slicing_xapp_demo
#include <cstdio>

#include "common/log.hpp"
#include "common/telemetry.hpp"
#include "explora/xapp.hpp"
#include "harness/training.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/ric.hpp"

int main() {
  using namespace explora;
  common::set_log_level(common::LogLevel::kWarn);

  // --- the RAN: one gNB with the paper's 6-user TRF1 scenario -------------
  netsim::ScenarioConfig scenario;
  scenario.profile = netsim::TrafficProfile::kTrf1;
  scenario.users_per_slice = netsim::users_for_count(6);
  scenario.seed = 7;

  // --- the models: load from the artifact cache or train ------------------
  harness::TrainingConfig training;
  harness::TrainedSystem system = harness::load_or_train(
      core::AgentProfile::kHighThroughput, scenario, training);

  // --- the near-RT RIC -----------------------------------------------------
  // Every component built below counts into this registry.
  telemetry::ScopedRegistry registry;
  oran::NearRtRic ric(netsim::make_gnb(scenario));

  oran::DrlXapp::Config drl_config;
  drl_config.stochastic = true;
  drl_config.prb_temperature = 0.5;
  oran::DrlXapp drl_xapp(drl_config, system.normalizer, *system.autoencoder,
                         *system.agent, ric.router());
  ric.attach_xapp(drl_xapp);
  ric.subscribe_indications("drl_xapp");

  core::ExploraXapp::Config explora_config;
  explora_config.reward_weights = core::RewardWeights::high_throughput();
  core::ActionSteering::Config steering;
  steering.strategy = core::SteeringStrategy::kMaxReward;
  steering.observation_window = 10;
  explora_config.steering = steering;
  core::ExploraXapp explora_xapp(explora_config, ric.router(),
                                 &ric.repository());
  ric.attach_xapp(explora_xapp);
  ric.subscribe_indications("explora_xapp");

  // RMR route table: interpose EXPLORA between the DRL xApp and the E2
  // termination (the paper's strategy (iii), §5.1).
  ric.route_control_via("drl_xapp", "explora_xapp");
  std::puts("RIC deployed: e2term -> {data_repo, drl_xapp, explora_xapp};");
  std::puts("              drl_xapp -(RAN control)-> explora_xapp -> e2term\n");

  // --- run 5 simulated minutes --------------------------------------------
  const std::size_t decisions = 1200;
  ric.run_windows(decisions * 10);

  const telemetry::TelemetrySnapshot counts = registry.registry().snapshot();
  auto print_count = [&counts](const char* label, std::string_view name) {
    std::printf("  %-26s: %llu\n", label,
                static_cast<unsigned long long>(counts.counter(name)));
  };
  std::printf("after %zu decision periods:\n", decisions);
  print_count("KPM indications published", "oran.e2term.indications");
  print_count("controls applied at gNB", "oran.e2term.controls_applied");
  print_count("KPM received by drl_xapp", "oran.drl_xapp.indications");
  print_count("KPM received by explora", "explora.xapp.indications");
  print_count("controls seen by explora", "explora.xapp.controls_seen");
  std::printf("  actions replaced by EDBR  : %llu\n\n",
              static_cast<unsigned long long>(
                  explora_xapp.controls_replaced()));

  std::fputs(explora_xapp.graph().describe(6).c_str(), stdout);

  std::puts("\nlast 5 archived (state, action, explanation) records:");
  const auto& records = ric.repository().explanations();
  const std::size_t start = records.size() > 5 ? records.size() - 5 : 0;
  for (std::size_t i = start; i < records.size(); ++i) {
    const auto& record = records[i];
    std::printf("  #%llu %s %s\n     %s\n",
                static_cast<unsigned long long>(record.decision_id),
                record.enforced.to_string().c_str(),
                record.replaced ? "[REPLACED]" : "[forwarded]",
                record.explanation.c_str());
  }
  return 0;
}
