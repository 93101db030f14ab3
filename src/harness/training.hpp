// Offline training pipeline standing in for the paper's ColO-RAN agents
// (which took 2.5 months of Colosseum data collection + GPU training):
//   1. drive the simulated gNB with exploratory random controls to collect
//      a KPI dataset and fit the [-1, 1] normalizer,
//   2. train the autoencoder on the flattened M x K x L inputs,
//   3. train the PPO agent in-sim on the latent space with the Eq. (1)
//      reward for the requested profile (HT or LL).
// Trained systems are serialized under an artifact directory so every
// bench/test reuses identical weights deterministically.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "explora/reward.hpp"
#include "ml/autoencoder.hpp"
#include "ml/dqn.hpp"
#include "ml/features.hpp"
#include "ml/ppo.hpp"
#include "netsim/scenario.hpp"

namespace explora::harness {

/// Everything the DRL xApp needs: normalizer + autoencoder + agent.
struct TrainedSystem {
  core::AgentProfile profile = core::AgentProfile::kHighThroughput;
  ml::KpiNormalizer normalizer;
  std::unique_ptr<ml::Autoencoder> autoencoder;
  std::unique_ptr<ml::PpoAgent> agent;
};

struct TrainingConfig {
  /// Exploration dataset size for the autoencoder, in decision steps.
  std::size_t collection_steps = 600;
  /// Windows (E2 reports) per decision — M.
  std::size_t reports_per_decision = ml::kHistory;
  ml::Autoencoder::Config autoencoder{};
  ml::PpoAgent::Config ppo{};
  std::size_t ppo_iterations = 30;
  std::size_t steps_per_iteration = 256;
  std::uint64_t seed = 2024;
};

/// Mean per-iteration training rewards (diagnostics).
struct TrainingReport {
  double autoencoder_mse = 0.0;
  std::vector<double> iteration_rewards;
};

/// Collects an exploration dataset from the scenario: returns the fitted
/// normalizer and the flattened input rows.
struct CollectedDataset {
  ml::KpiNormalizer normalizer;
  std::vector<ml::Vector> inputs;
};
[[nodiscard]] CollectedDataset collect_dataset(
    const netsim::ScenarioConfig& scenario, const TrainingConfig& config);

/// Trains a full system for `profile` on `scenario` from scratch.
[[nodiscard]] TrainedSystem train_system(core::AgentProfile profile,
                                         const netsim::ScenarioConfig& scenario,
                                         const TrainingConfig& config,
                                         TrainingReport* report = nullptr);

/// Continues PPO training of an existing system in a (possibly different)
/// scenario — the paper's "online training phase" used before the action
/// steering experiments (§6.1).
void online_finetune(TrainedSystem& system,
                     const netsim::ScenarioConfig& scenario,
                     const TrainingConfig& config, std::size_t iterations);

/// A trained DQN-driven system (same normalizer/autoencoder pipeline but
/// a branching-DQN agent) — used to demonstrate EXPLORA's agent-family
/// agnosticism (§4.2).
struct DqnSystem {
  core::AgentProfile profile = core::AgentProfile::kHighThroughput;
  ml::KpiNormalizer normalizer;
  std::unique_ptr<ml::Autoencoder> autoencoder;
  std::unique_ptr<ml::DqnAgent> agent;
};

struct DqnTrainingConfig {
  ml::DqnAgent::Config dqn{};
  std::size_t environment_steps = 6000;
  std::size_t warmup_steps = 200;    ///< steps before updates begin
  std::size_t update_interval = 2;   ///< environment steps per update
};

/// Trains a DQN system from scratch (reusing collect_dataset and the
/// autoencoder pipeline from `config`).
[[nodiscard]] DqnSystem train_dqn_system(core::AgentProfile profile,
                                         const netsim::ScenarioConfig& scenario,
                                         const TrainingConfig& config,
                                         const DqnTrainingConfig& dqn_config);

/// Artifact directory: $EXPLORA_ARTIFACTS or ./artifacts.
[[nodiscard]] std::filesystem::path artifact_dir();

/// Model-file bytes: header, profile, normalizer, autoencoder, agent.
[[nodiscard]] std::vector<std::uint8_t> serialize_system(
    const TrainedSystem& system);
/// Inverse of serialize_system. Throws common::SerializeError on malformed
/// or truncated input, trailing bytes, or a different profile or shape.
[[nodiscard]] TrainedSystem deserialize_system(
    std::span<const std::uint8_t> bytes, core::AgentProfile profile,
    const TrainingConfig& config);

/// The artifact cache: serialize_system bytes written atomically (parent
/// directories created) and read back.
void save_system(const TrainedSystem& system,
                 const std::filesystem::path& path);
[[nodiscard]] TrainedSystem load_system(const std::filesystem::path& path,
                                        core::AgentProfile profile,
                                        const TrainingConfig& config);

/// Where load_or_train caches the system for (profile, scenario, config
/// seed). The file name carries the model-file major version and the
/// math layer's detmath::kNumericsVersion, so a cache written by another
/// layout or other numerics is never opened.
[[nodiscard]] std::filesystem::path artifact_path(
    core::AgentProfile profile, const netsim::ScenarioConfig& scenario,
    const TrainingConfig& config);

/// Loads the cached system for (profile, scenario/config seed) or trains
/// and caches it. This is the single entry point benches/examples use.
[[nodiscard]] TrainedSystem load_or_train(core::AgentProfile profile,
                                          const netsim::ScenarioConfig& scenario,
                                          const TrainingConfig& config = {});

}  // namespace explora::harness
