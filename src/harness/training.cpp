#include "harness/training.hpp"

#include <algorithm>
#include <cstdlib>
#include <system_error>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "common/format.hpp"
#include "common/log.hpp"

namespace explora::harness {

namespace {

/// Model-file header. The major version is also part of the cache file
/// name, so a stale cache of an older layout is never even opened.
constexpr std::uint8_t kSystemVersion = 3;
constexpr common::StreamFormat kSystemFormat{
    "model", 0x4c444f4du /* "MODL" */, kSystemVersion, 0};

/// Training-side environment loop: gNB + input window + latent encoding.
/// (The RIC message plumbing is bypassed during training for speed; the
/// deployed path through the router is exercised by the experiment runner
/// and the integration tests.)
class SliceEnv {
 public:
  SliceEnv(const netsim::ScenarioConfig& scenario,
           std::size_t reports_per_decision,
           const ml::KpiNormalizer& normalizer,
           const ml::Autoencoder* autoencoder, core::RewardModel reward)
      : scenario_(scenario),
        reports_per_decision_(reports_per_decision),
        normalizer_(&normalizer),
        autoencoder_(autoencoder),
        reward_(reward) {
    reset(scenario.seed);
  }

  void reset(std::uint64_t seed) {
    netsim::ScenarioConfig scenario = scenario_;
    scenario.seed = seed;
    gnb_ = netsim::make_gnb(scenario);
    window_.clear();
    // Warm-up under the gNB's default control until the window fills.
    while (!window_.ready()) {
      window_.push(gnb_->run_report_window());
    }
  }

  /// Latent observation of the current window.
  [[nodiscard]] ml::Vector latent() const {
    const ml::Vector input = window_.flatten(*normalizer_);
    if (autoencoder_ == nullptr) return input;
    return autoencoder_->encode(input);
  }

  /// Applies the control, advances one decision period, returns the reward.
  double step(const netsim::SlicingControl& control) {
    gnb_->apply_control(control);
    std::vector<netsim::KpiReport> reports;
    reports.reserve(reports_per_decision_);
    for (std::size_t i = 0; i < reports_per_decision_; ++i) {
      reports.push_back(gnb_->run_report_window());
      window_.push(reports.back());
    }
    return reward_.from_window(reports);
  }

  [[nodiscard]] netsim::Gnb& gnb() noexcept { return *gnb_; }

 private:
  netsim::ScenarioConfig scenario_;
  std::size_t reports_per_decision_;
  const ml::KpiNormalizer* normalizer_;
  const ml::Autoencoder* autoencoder_;
  core::RewardModel reward_;
  std::unique_ptr<netsim::Gnb> gnb_;
  ml::InputWindow window_;
};

[[nodiscard]] netsim::SlicingControl random_control(common::Rng& rng) {
  const auto& catalog = netsim::prb_catalog();
  netsim::SlicingControl control;
  control.prbs = catalog[rng.index(catalog.size())];
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    control.scheduling[s] = static_cast<netsim::SchedulerPolicy>(
        rng.index(netsim::kNumSchedulerPolicies));
  }
  return control;
}

void run_ppo_iterations(TrainedSystem& system, SliceEnv& env,
                        const TrainingConfig& config, std::size_t iterations,
                        common::Rng& rng,
                        std::vector<double>* iteration_rewards) {
  ml::RolloutBuffer buffer;
  for (std::size_t iteration = 0; iteration < iterations; ++iteration) {
    buffer.clear();
    double reward_sum = 0.0;
    for (std::size_t step = 0; step < config.steps_per_iteration; ++step) {
      ml::Vector state = env.latent();
      const ml::PolicyDecision decision = system.agent->act(state, rng);
      const double value = system.agent->value(state);
      const double reward = env.step(ml::to_control(decision.action));
      reward_sum += reward;
      buffer.add(ml::Transition{
          .state = std::move(state),
          .action = decision.action,
          .log_prob = decision.log_prob,
          .value = value,
          .reward = reward,
          .terminal = false,
      });
    }
    const double bootstrap = system.agent->value(env.latent());
    buffer.compute_gae(config.ppo.gamma, config.ppo.gae_lambda, bootstrap);
    system.agent->update(buffer);
    const double mean_reward =
        reward_sum / static_cast<double>(config.steps_per_iteration);
    if (iteration_rewards != nullptr) {
      iteration_rewards->push_back(mean_reward);
    }
    common::logf(common::LogLevel::kInfo, "train",
                 "iteration {}: mean reward {:.3f}", iteration, mean_reward);
  }
}

[[nodiscard]] std::string sanitize(std::string text) {
  for (char& c : text) {
    if (c == '/' || c == '(' || c == ')' || c == ' ') c = '-';
  }
  return text;
}

}  // namespace

CollectedDataset collect_dataset(const netsim::ScenarioConfig& scenario,
                                 const TrainingConfig& config) {
  common::Rng rng(config.seed);
  auto gnb = netsim::make_gnb(scenario);

  // Pass 1: drive with random controls, retaining every report.
  std::vector<netsim::KpiReport> reports;
  reports.reserve(config.collection_steps * config.reports_per_decision);
  for (std::size_t step = 0; step < config.collection_steps; ++step) {
    gnb->apply_control(random_control(rng));
    for (std::size_t w = 0; w < config.reports_per_decision; ++w) {
      reports.push_back(gnb->run_report_window());
    }
  }

  CollectedDataset out;
  for (const auto& report : reports) out.normalizer.observe(report);

  // Pass 2: sliding window over the trace -> flattened inputs.
  ml::InputWindow window;
  for (const auto& report : reports) {
    window.push(report);
    if (window.ready()) {
      out.inputs.push_back(window.flatten(out.normalizer));
    }
  }
  EXPLORA_ENSURES(!out.inputs.empty());
  return out;
}

TrainedSystem train_system(core::AgentProfile profile,
                           const netsim::ScenarioConfig& scenario,
                           const TrainingConfig& config,
                           TrainingReport* report) {
  TrainedSystem system;
  system.profile = profile;

  common::logf(common::LogLevel::kInfo, "train",
               "collecting dataset for {} on {}", core::to_string(profile),
               scenario.name());
  CollectedDataset dataset = collect_dataset(scenario, config);
  system.normalizer = dataset.normalizer;

  system.autoencoder = std::make_unique<ml::Autoencoder>(
      config.autoencoder, config.seed ^ 0xae);
  const double mse = system.autoencoder->train(dataset.inputs);
  if (report != nullptr) report->autoencoder_mse = mse;
  common::logf(common::LogLevel::kInfo, "train",
               "autoencoder reconstruction MSE {:.5f}", mse);

  system.agent =
      std::make_unique<ml::PpoAgent>(config.ppo, config.seed ^ 0x99);
  SliceEnv env(scenario, config.reports_per_decision, system.normalizer,
               system.autoencoder.get(),
               core::RewardModel(core::weights_for(profile)));
  common::Rng rng(config.seed ^ 0x7777);
  run_ppo_iterations(system, env, config, config.ppo_iterations, rng,
                     report != nullptr ? &report->iteration_rewards
                                       : nullptr);
  return system;
}

DqnSystem train_dqn_system(core::AgentProfile profile,
                           const netsim::ScenarioConfig& scenario,
                           const TrainingConfig& config,
                           const DqnTrainingConfig& dqn_config) {
  DqnSystem system;
  system.profile = profile;

  CollectedDataset dataset = collect_dataset(scenario, config);
  system.normalizer = dataset.normalizer;
  system.autoencoder = std::make_unique<ml::Autoencoder>(
      config.autoencoder, config.seed ^ 0xae);
  system.autoencoder->train(dataset.inputs);

  system.agent =
      std::make_unique<ml::DqnAgent>(dqn_config.dqn, config.seed ^ 0xd);
  SliceEnv env(scenario, config.reports_per_decision, system.normalizer,
               system.autoencoder.get(),
               core::RewardModel(core::weights_for(profile)));
  common::Rng rng(config.seed ^ 0xdd);
  ml::ReplayBuffer buffer(10000);
  ml::Vector state = env.latent();
  for (std::size_t step = 0; step < dqn_config.environment_steps; ++step) {
    const ml::AgentAction action = system.agent->act_epsilon_greedy(state, rng);
    const double reward = env.step(ml::to_control(action));
    ml::Vector next_state = env.latent();
    buffer.add(ml::DqnExperience{
        .state = state,
        .action = action,
        .reward = reward,
        .next_state = next_state,
        .terminal = false,
    });
    state = std::move(next_state);
    if (step >= dqn_config.warmup_steps &&
        step % dqn_config.update_interval == 0) {
      (void)system.agent->update(buffer, rng);
    }
    if (step % 512 == 0) {
      common::logf(common::LogLevel::kInfo, "train-dqn",
                   "step {}: epsilon {:.2f}", step, system.agent->epsilon());
    }
  }
  return system;
}

void online_finetune(TrainedSystem& system,
                     const netsim::ScenarioConfig& scenario,
                     const TrainingConfig& config, std::size_t iterations) {
  EXPLORA_EXPECTS(system.autoencoder != nullptr && system.agent != nullptr);
  SliceEnv env(scenario, config.reports_per_decision, system.normalizer,
               system.autoencoder.get(),
               core::RewardModel(core::weights_for(system.profile)));
  common::Rng rng(config.seed ^ 0x0317);
  run_ppo_iterations(system, env, config, iterations, rng, nullptr);
}

std::filesystem::path artifact_dir() {
  if (const char* env = std::getenv("EXPLORA_ARTIFACTS");
      env != nullptr && *env != '\0') {
    return std::filesystem::path(env);
  }
#ifdef EXPLORA_ARTIFACT_ROOT
  return std::filesystem::path(EXPLORA_ARTIFACT_ROOT);
#else
  return std::filesystem::path("artifacts");
#endif
}

std::vector<std::uint8_t> serialize_system(const TrainedSystem& system) {
  common::Writer writer;
  writer.header(kSystemFormat);
  writer.varint(static_cast<std::uint64_t>(system.profile));
  system.normalizer.serialize(writer);
  system.autoencoder->serialize(writer);
  system.agent->serialize(writer);
  return std::move(writer).take();
}

TrainedSystem deserialize_system(std::span<const std::uint8_t> bytes,
                                 core::AgentProfile profile,
                                 const TrainingConfig& config) {
  common::Reader reader(bytes);
  reader.header(kSystemFormat);
  if (reader.varint() != static_cast<std::uint64_t>(profile)) {
    throw common::SerializeError("cached system has a different profile");
  }
  TrainedSystem system;
  system.profile = profile;
  system.normalizer.deserialize(reader);
  system.autoencoder = std::make_unique<ml::Autoencoder>(
      config.autoencoder, config.seed ^ 0xae);
  system.autoencoder->deserialize(reader);
  system.agent =
      std::make_unique<ml::PpoAgent>(config.ppo, config.seed ^ 0x99);
  system.agent->deserialize(reader);
  if (!reader.at_end()) {
    throw common::SerializeError(common::format(
        "{} trailing bytes after the last model field", reader.remaining()));
  }
  return system;
}

void save_system(const TrainedSystem& system,
                 const std::filesystem::path& path) {
  std::error_code ec;
  const auto parent = path.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  if (ec) {
    throw common::SerializeError("cannot create directory " + parent.string());
  }
  common::write_file_atomic(path, serialize_system(system));
}

TrainedSystem load_system(const std::filesystem::path& path,
                          core::AgentProfile profile,
                          const TrainingConfig& config) {
  return deserialize_system(common::read_file(path), profile, config);
}

std::filesystem::path artifact_path(core::AgentProfile profile,
                                    const netsim::ScenarioConfig& scenario,
                                    const TrainingConfig& config) {
  return artifact_dir() /
         sanitize(common::format("system-{}-{}-t{}-v{}-n{}.bin",
                                 core::to_string(profile), scenario.name(),
                                 config.seed, kSystemVersion,
                                 detmath::kNumericsVersion));
}

TrainedSystem load_or_train(core::AgentProfile profile,
                            const netsim::ScenarioConfig& scenario,
                            const TrainingConfig& config) {
  const auto path = artifact_path(profile, scenario, config);
  if (std::filesystem::exists(path)) {
    try {
      return load_system(path, profile, config);
    } catch (const common::SerializeError& error) {
      common::logf(common::LogLevel::kWarn, "train",
                   "stale artifact {} ({}); retraining", path.string(),
                   error.what());
    }
  }
  TrainedSystem system = train_system(profile, scenario, config);
  save_system(system, path);
  return system;
}

}  // namespace explora::harness
