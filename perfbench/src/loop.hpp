// The benchmark's own composition of the closed loop. It wires the same
// public classes harness::run_experiment wires (gNB, RMR router, data
// repository, E2 termination, DRL xApp, EXPLORA xApp, ExplainService) in
// the same order, but registers each endpoint with the router behind a
// timing proxy. The proxies always time the control path (decision-
// triggering KPM at the DRL xApp -> control applied at the E2 termination);
// with a Tracer they also record one span per delivery, per report window,
// per bookkeeping step and per serving call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "explora/transitions.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "netsim/scenario.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace harness = explora::harness;

/// The paper's TRF1 scenario with 6 users (2/2/2) and the given seed.
[[nodiscard]] explora::netsim::ScenarioConfig trf1_scenario(
    std::uint64_t seed);

/// The trained models every workload drives (HT agent, TRF1 training run).
struct System {
  harness::TrainedSystem trained;
  harness::TrainingConfig training;
};

/// Loads the cached system from $EXPLORA_ARTIFACTS, training it there on
/// first use.
[[nodiscard]] System load_system();

/// One closed-loop run of `options.decisions` decisions.
struct EpisodeResult {
  std::vector<harness::DecisionRecord> decisions;
  std::optional<harness::ServingTelemetry> serving;
  std::vector<std::int64_t> serving_latency_ticks;  ///< delivered results
  std::vector<std::int64_t> decision_ns;      ///< host time per decision period
  std::vector<std::int64_t> control_path_ns;  ///< per applied control
  std::int64_t wall_ns = 0;                   ///< the whole run
  std::uint64_t deliveries = 0;               ///< RMR deliveries
  std::uint64_t windows = 0;                  ///< E2 report windows
  std::uint64_t explanations = 0;             ///< repository records
  std::uint64_t controls_rejected = 0;
  std::uint64_t controls_replaced = 0;
  std::size_t graph_nodes = 0;
  std::vector<explora::core::TransitionEvent> transitions;
  /// The EXPLORA ladder stayed on the exact tier with no staleness episode.
  bool ladder_exact = false;
  std::uint64_t shap_model_evals = 0;
  std::uint64_t shap_explanations = 0;

  // Traced runs only.
  LayerTotals layers;
  std::int64_t netsim_ns = 0;  ///< fresh-gNB replay of the report windows
  bool netsim_reports_match = false;
};

/// Runs one episode. With a tracer, also replays the enforced-control
/// sequence onto a fresh gNB (same scenario seed) to time the simulator
/// alone, checking its reports against the repository's.
[[nodiscard]] EpisodeResult run_episode(
    const System& system, const explora::netsim::ScenarioConfig& scenario,
    const harness::ExperimentOptions& options, Tracer* tracer);

/// Empty when the episode's decision stream (enforced and proposed
/// actions, replaced flags, reward bits), serving stream digest and
/// EXPLORA state sizes equal the reference's; otherwise the first
/// difference.
[[nodiscard]] std::string compare_streams(
    const EpisodeResult& episode, const harness::ExperimentResult& reference);

/// Same check between two episodes of the benchmark's own loop.
[[nodiscard]] std::string compare_episodes(const EpisodeResult& a,
                                           const EpisodeResult& b);

}  // namespace perfbench
