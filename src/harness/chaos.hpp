// Chaos harness: sweeps RMR fault intensities over full closed-loop runs
// and checks the robustness contract — every DRL control is eventually
// applied exactly once at the gNB, and the mean per-slice reward degrades
// by at most a configured bound versus the fault-free baseline at the same
// seed. Results serialize to a deterministic JSON document (fixed key
// order, fixed float precision) so two runs with the same seed and fault
// configuration must produce bit-identical output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "netsim/scenario.hpp"
#include "oran/reliable.hpp"

namespace explora::harness {

/// One point of the fault sweep: the impairment intensities injected on
/// each message plane for a full experiment run.
struct ChaosFaultPoint {
  std::string label;
  double control_drop = 0.0;       ///< RIC_CONTROL drop probability
  double control_delay = 0.0;      ///< RIC_CONTROL delay probability
  std::uint32_t delay_rounds = 1;  ///< dispatch rounds a delayed control waits
  double control_duplicate = 0.0;  ///< RIC_CONTROL duplication probability
  double ack_drop = 0.0;           ///< RIC_CONTROL_ACK drop probability
  double indication_drop = 0.0;    ///< KPM drop on the EXPLORA subscription
  // Slow-explainer impairment: per-request simulated-cost inflation and
  // outright eval failures on the serving path's model-eval tiers.
  double explainer_slow = 0.0;        ///< P(cost inflated slow_factor x)
  std::int64_t explainer_slow_factor = 4;
  double explainer_fail = 0.0;        ///< P(model eval fails; feeds breaker)
};

struct ChaosConfig {
  netsim::ScenarioConfig scenario;
  TrainingConfig training;
  std::size_t decisions = 24;
  /// Seed of the impairment decision stream (one per sweep point; the same
  /// seed is reused across points so each point is independently
  /// reproducible in isolation).
  std::uint64_t fault_seed = 4242;
  /// ACK/retry policy for both control hops. The default retries every
  /// indication tick without backoff: in the chaos loop the tick budget
  /// after the final decision is one report window, so aggressive retries
  /// keep the tail short enough for every control to land before the run
  /// ends.
  oran::ReliableControlSender::Config reliable{
      .ack_timeout_ticks = 1, .max_retries = 12, .backoff_factor = 1};
  std::vector<ChaosFaultPoint> points;
  /// Maximum tolerated mean-reward degradation vs the baseline (0.20 =
  /// 20%).
  double max_reward_degradation = 0.20;
  /// Explanation serving runs on every sweep point (and the baseline), so
  /// the serving-path contract is checked under the same faults as the
  /// control plane.
  ServingOptions serving{};
  /// Maximum tolerated fraction of submitted requests shed (admission +
  /// dispatch) per point.
  double max_shed_rate = 0.5;
};

/// The default sweep: drop rates up to 10% on the control plane, one
/// delay-heavy point, one duplication point, and one KPM-gap point that
/// forces the EXPLORA watchdog through degraded mode and back.
[[nodiscard]] std::vector<ChaosFaultPoint> default_fault_points();

struct ChaosRow {
  ChaosFaultPoint point;
  double mean_reward = 0.0;
  /// (baseline - mean) / |baseline|; negative when faults improved reward.
  double degradation = 0.0;
  /// The run's registry snapshot: the verdicts and the report's counters
  /// are read from it by metric name.
  telemetry::TelemetrySnapshot telemetry;
  ServingTelemetry serving;
  bool exactly_once = false;
  bool bounded = false;
  /// Serving contract: no growth past the admission bound, every accepted
  /// request accounted for (delivered or shed with a reason), and the
  /// total shed rate within ChaosConfig::max_shed_rate.
  bool serving_ok = false;
};

struct ChaosReport {
  std::uint64_t scenario_seed = 0;
  std::uint64_t fault_seed = 0;
  std::size_t decisions = 0;
  double baseline_reward = 0.0;
  std::vector<ChaosRow> rows;
  [[nodiscard]] bool all_exactly_once() const;
  [[nodiscard]] bool all_bounded() const;
  [[nodiscard]] bool all_serving_ok() const;
  /// Deterministic JSON: fixed key order, "%.6f" floats, no locale.
  [[nodiscard]] std::string to_json() const;
};

/// Controls sent on either reliable hop and neither ACKed nor expired by
/// the end of the run: every sequence number is ACKed, expired or still
/// held, exactly once.
[[nodiscard]] std::uint64_t controls_in_flight(
    const telemetry::TelemetrySnapshot& telemetry);

/// Runs the fault-free baseline then every sweep point, all at the same
/// scenario/xApp seeds, and evaluates the robustness contract per point.
/// The verdicts are read from each run's telemetry, so a build with
/// telemetry compiled out is a contract violation.
[[nodiscard]] ChaosReport run_chaos_sweep(const TrainedSystem& system,
                                          const ChaosConfig& config);

}  // namespace explora::harness
