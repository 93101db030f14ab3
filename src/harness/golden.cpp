#include "harness/golden.hpp"

#include "common/contracts.hpp"
#include "common/telemetry.hpp"
#include "harness/experiment.hpp"
#include "harness/replay.hpp"
#include "harness/training.hpp"

namespace explora::harness {
namespace {

// The tiny chaos-test configuration: small enough that a case runs in
// well under a second, large enough that every instrumented subsystem
// (scheduler, gNB KPIs, RMR, impairments, reliable delivery, E2
// termination, both xApps, the harness decision span) records activity.
netsim::ScenarioConfig golden_scenario() {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  scenario.seed = 31;
  return scenario;
}

TrainingConfig golden_training() {
  TrainingConfig config;
  config.collection_steps = 30;
  config.autoencoder.epochs = 5;
  config.ppo_iterations = 2;
  config.steps_per_iteration = 32;
  config.seed = 99;
  return config;
}

// Trained once per process, against whatever registry is active at first
// call; each golden run counts in its own registry, so ml.* training
// metrics never leak into golden snapshots.
const TrainedSystem& golden_system() {
  static const TrainedSystem system =
      train_system(core::AgentProfile::kHighThroughput, golden_scenario(),
                   golden_training());
  return system;
}

ExperimentOptions golden_options(std::string_view case_name) {
  ExperimentOptions options;
  options.decisions = 8;
  options.deploy_explora = true;
  // Reliable delivery on both control hops in every case, so ACK-latency
  // spans and sent/acked counters appear in the baseline trace too (with
  // zero retransmissions — the diff then shows exactly what faults add).
  options.reliable = oran::ReliableControlSender::Config{
      .ack_timeout_ticks = 1, .max_retries = 12, .backoff_factor = 1};
  if (case_name == "baseline" || case_name == "replay_roundtrip") {
    return options;
  }
  if (case_name == "serving_burst") {
    // Explanation serving under burst pressure: a deliberately small
    // queue and single worker so the ladder demotes, tight deadlines so
    // dispatch walks down, and slow/failing evals so the breaker and the
    // explora.serving.* fault counters all appear in the snapshot.
    ServingOptions serving;
    serving.requests_per_decision = 6;
    serving.queue_capacity = 4;
    serving.workers = 1;
    serving.background_rows = 4;
    serving.sampled_permutations = 4;
    serving.deadline_ticks = 64;
    serving.eval_slow_probability = 0.30;
    serving.eval_slow_factor = 4;
    serving.eval_failure_probability = 0.10;
    options.serving = serving;
    return options;
  }
  EXPLORA_EXPECTS_MSG(case_name == "chaos_drop10",
                      "unknown golden-trace case '{}'", case_name);
  FaultInjectionOptions faults;
  faults.control.drop = 0.10;
  faults.ack.drop = 0.10;
  options.faults = faults;
  return options;
}

}  // namespace

const std::vector<std::string_view>& golden_trace_cases() {
  static const std::vector<std::string_view> cases = {
      "baseline", "chaos_drop10", "serving_burst", "replay_roundtrip"};
  return cases;
}

std::string run_golden_trace(std::string_view case_name) {
  const TrainedSystem& system = golden_system();
  const ExperimentOptions options = golden_options(case_name);
  if (case_name == "replay_roundtrip") {
    // Record a live run, replay its trace offline, and publish the
    // byte-identity verdict (plus the stream shape) as counters. The live
    // and replayed pipelines each count in their own registry, so this
    // snapshot contains exactly the round-trip verdict — and the golden
    // differ flags any future change that breaks replay determinism as a
    // structural diff on these counters.
    const RoundTripReport report = replay_roundtrip(
        system, golden_scenario(), options, golden_training());
    telemetry::Registry registry;
    telemetry::Scope rscope("harness.replay", &registry);
    rscope.counter("trace_bytes").add(report.live.trace.size());
    rscope.counter("frames_replayed").add(report.replayed.frames_delivered);
    rscope.counter("explanations").add(report.replayed.explanations.size());
    rscope.counter("degradations").add(report.replayed.degradations.size());
    rscope.counter("attribution_bytes")
        .add(report.live.attribution.bytes.size());
    rscope.counter("attribution_digest").add(report.live.attribution.digest);
    rscope.counter("bytes_identical").add(report.bytes_identical ? 1 : 0);
    rscope.counter("telemetry_identical")
        .add(report.telemetry_identical ? 1 : 0);
    return registry.snapshot_json();
  }
  return run_experiment(system, golden_scenario(), options, golden_training())
      .telemetry.to_json();
}

std::string golden_trace_filename(std::string_view case_name) {
  return std::string(case_name) + ".json";
}

}  // namespace explora::harness
