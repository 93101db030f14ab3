// Shared helpers for the per-figure/table benchmark binaries: the paper's
// standard scenarios, a cached trained system per agent profile, dataset
// extraction for the XAI baselines, and ASCII scatter plots for the
// transition figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explora/reward.hpp"
#include "explora/transitions.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "xai/tree.hpp"

namespace explora::bench {

/// Decision count for one benchmark run. The paper runs 30 minutes (7200
/// decisions at 4 Hz); the default here is 6 simulated minutes, which is
/// enough for the distributions to stabilize. Set EXPLORA_BENCH_FULL=1 for
/// the full 30 minutes.
[[nodiscard]] std::size_t bench_decisions();

/// The paper's experiment configuration C_{agent, trf-users}.
[[nodiscard]] netsim::ScenarioConfig paper_scenario(
    netsim::TrafficProfile profile, std::uint32_t users,
    std::uint64_t seed = 42);

/// Default training budget used for all bench agents (cached on disk).
[[nodiscard]] harness::TrainingConfig bench_training();

/// The trained system for a profile; agents are trained once on the TRF1
/// 6-user scenario (as in the paper, where TRF1 generates the training
/// dataset) and cached under artifacts/.
[[nodiscard]] const harness::TrainedSystem& trained_system(
    core::AgentProfile profile);

/// Runs the standard deployed experiment (EXPLORA observing, no steering).
[[nodiscard]] harness::ExperimentResult run_standard(
    core::AgentProfile profile, netsim::TrafficProfile traffic,
    std::uint32_t users, std::uint64_t seed = 42);

/// Runs the paper's action-steering setup (§6.1/§6.3): 6 users dropping to
/// 5 mid-run, an online fine-tuning phase before deployment, and EDBR with
/// the given strategy (std::nullopt = the no-steering baseline).
[[nodiscard]] harness::ExperimentResult run_steered(
    core::AgentProfile profile, netsim::TrafficProfile traffic,
    std::optional<core::SteeringStrategy> strategy,
    std::size_t observation_window, std::uint64_t seed = 42);

/// Extracts a (latent -> enforced-action) classification dataset from an
/// experiment, relabelling the observed distinct actions to 0..n-1.
struct LatentActionDataset {
  xai::Dataset data;
  std::size_t num_classes = 0;
  double majority_share = 0.0;  ///< share of the most frequent action
};
[[nodiscard]] LatentActionDataset latent_action_dataset(
    const harness::ExperimentResult& result);

/// ASCII scatter plot of transition events: x = delta of `x_kpi`,
/// y = delta of `y_kpi`, glyph = transition class (S, P, C, D).
[[nodiscard]] std::string transition_scatter(
    const std::vector<core::TransitionEvent>& events, netsim::Kpi x_kpi,
    netsim::Kpi y_kpi, std::size_t width = 64, std::size_t height = 20);

/// Per-class share table (Fig. 7/13 commentary: Self ~5%, Distinct ~50%).
[[nodiscard]] std::string class_share_table(
    const std::vector<core::TransitionEvent>& events);

/// Section header for bench output.
void print_header(const std::string& title);

}  // namespace explora::bench
