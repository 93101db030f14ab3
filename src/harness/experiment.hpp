// Deployed-experiment runner: instantiates the full O-RAN pipeline of
// Fig. 6 (gNB -> E2 termination -> RMR -> DRL xApp [-> EXPLORA xApp] ->
// E2 termination) and drives it for a configured number of decision
// periods, harvesting everything the paper's figures need: per-window KPI
// samples, per-decision actions/latents/rewards, the attributed graph,
// transition events and steering statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fnv.hpp"
#include "explora/edbr.hpp"
#include "explora/explain_service.hpp"
#include "explora/shield.hpp"
#include "explora/graph.hpp"
#include "explora/reward.hpp"
#include "explora/transitions.hpp"
#include "harness/training.hpp"
#include "ml/agent.hpp"
#include "ml/features.hpp"
#include "explora/xapp.hpp"
#include "netsim/scenario.hpp"
#include "oran/impairments.hpp"
#include "oran/reliable.hpp"
#include "oran/trace.hpp"

namespace explora::harness {

/// Link-fault injection for chaos runs. Policies apply per message plane;
/// indication faults target only the EXPLORA xApp's subscription so the
/// data repository (the measurement plane) keeps an unbroken KPI record.
struct FaultInjectionOptions {
  /// Seed for the impairment decision stream (forked internally, so the
  /// same seed + policies reproduce the same fault pattern bit-for-bit).
  std::uint64_t seed = 4242;
  /// Applied to every RIC_CONTROL delivery (both hops).
  oran::LinkImpairments::Policy control{};
  /// Applied to every RIC_CONTROL_ACK delivery (both hops).
  oran::LinkImpairments::Policy ack{};
  /// Applied to KPM indications delivered to `indication_target` only.
  oran::LinkImpairments::Policy indication{};
  std::string indication_target = "explora_xapp";
};

/// Explanation-serving wiring for closed-loop runs (requires
/// deploy_explora): each decision submits queries for the latest latent
/// and enforced action against an ExplainService that shares the EXPLORA
/// xApp's degradation ladder, ticking the service on the gNB's TTI clock.
/// The service is constructed once `background_rows` latents have been
/// observed (SHAP needs a background to marginalize over).
struct ServingOptions {
  std::size_t requests_per_decision = 2;
  std::size_t queue_capacity = 16;
  std::size_t workers = 2;
  /// Latent rows collected before the service comes up.
  std::size_t background_rows = 4;
  std::size_t sampled_permutations = 8;
  std::uint64_t seed = 2027;
  /// Per-request deadline in ticks; 0 = the service default.
  std::int64_t deadline_ticks = 0;
  // Slow-explainer impairment (chaos): see ExplainService::Config.
  double eval_slow_probability = 0.0;
  std::int64_t eval_slow_factor = 4;
  double eval_failure_probability = 0.0;
};

/// End-of-run serving-path telemetry: admission/shed/tier counters from
/// the service plus an FNV-1a digest of the delivered result stream
/// (ids, tiers, shed reasons, attribution bytes in delivery order) — two
/// runs that made identical serving decisions produce identical digests.
struct ServingTelemetry {
  ExplainService::Stats stats{};
  std::uint64_t delivered = 0;     ///< results with an attribution
  std::uint64_t shed_notices = 0;  ///< dispatch-time sheds drained
  std::uint64_t ladder_demotions = 0;
  std::uint64_t ladder_promotions = 0;
  std::uint64_t stream_digest = common::kFnvBasis;  ///< FNV-1a
};

struct ExperimentOptions {
  /// Number of DRL decision periods to run (each = M report windows;
  /// 720 decisions = 30 simulated minutes at 4 decisions/s).
  std::size_t decisions = 720;
  /// Deploy the EXPLORA xApp on the control path.
  bool deploy_explora = true;
  /// EDBR steering (requires deploy_explora).
  std::optional<core::ActionSteering::Config> steering;
  /// Action shield (Opt 2; requires deploy_explora). Applied before
  /// steering inside the EXPLORA xApp.
  std::optional<core::ActionShield> shield;
  /// Sample actions from the policy instead of taking the argmax. The
  /// paper's deployed agents keep exploring; sampling reproduces the
  /// action diversity visible in its graphs.
  bool stochastic_agent = true;
  /// Sampling temperatures for the deployed policy (< 1 concentrates it;
  /// the deployed paper agents mix a dominant action with excursions).
  /// The slicing (PRB) head runs colder than the scheduler heads.
  double prb_temperature = 0.35;
  double sched_temperature = 0.9;
  std::uint64_t xapp_seed = 555;
  /// Detach one UE of `drop_slice` after this many decisions (the paper's
  /// "Users: 6, drop to 5" steering setup).
  std::optional<std::size_t> drop_ue_at_decision;
  netsim::Slice drop_slice = netsim::Slice::kMmtc;

  // --- robustness (fault-injected runs) ----------------------------------
  /// RMR link impairments; unset runs the fault-free pipeline.
  std::optional<FaultInjectionOptions> faults;
  /// Sequence-numbered ACK/retry control delivery on every control hop;
  /// unset keeps legacy fire-and-forget sends.
  std::optional<oran::ReliableControlSender::Config> reliable;
  /// EXPLORA staleness-watchdog tuning (see ExploraXapp::Config).
  netsim::Tick expected_report_period = 0;
  bool degraded_hold_last = false;
  /// Explanation serving on the closed loop (requires deploy_explora).
  std::optional<ServingOptions> serving;

  // --- record/replay -----------------------------------------------------
  /// When set, tapped onto the router for the run's duration: every
  /// delivered message is captured tick-stamped (on the telemetry
  /// registry's clock), ready to serialize as an `.etrace` stream for
  /// offline replay (DESIGN.md §13.4). Non-owning; must outlive the run.
  oran::TraceRecorder* recorder = nullptr;
};

/// The EXPLORA xApp configuration run_experiment deploys for the given
/// options — exposed so an offline replay (harness/replay.hpp) constructs
/// a byte-identical xApp from the same options that drove the live run.
[[nodiscard]] core::ExploraXapp::Config make_explora_config(
    const ExperimentOptions& options, core::AgentProfile profile,
    std::size_t reports_per_decision);

/// One DRL decision period.
struct DecisionRecord {
  ml::Vector latent;                      ///< agent input (autoencoder out)
  netsim::SlicingControl proposed;        ///< agent's action
  netsim::SlicingControl enforced;        ///< after EDBR (== proposed if off)
  bool replaced = false;
  double reward = 0.0;                    ///< Eq. (1) over the window
};

struct SteeringStats {
  std::uint64_t decisions = 0;
  std::uint64_t suggestions = 0;
  std::uint64_t replacements = 0;
  /// Replacement multiplicity per action replaced out (Fig. 15's
  /// "same action substituted more than 3 times is rare").
  std::vector<std::uint64_t> per_action_replaced_out;
};

/// End-of-run fault and resilience counters, harvested from the router,
/// both reliable senders, the E2 termination and the EXPLORA watchdog.
struct FaultTelemetry {
  // Router-level impairments (per plane).
  std::uint64_t controls_dropped = 0;
  std::uint64_t controls_delayed = 0;
  std::uint64_t controls_duplicated = 0;
  std::uint64_t acks_dropped = 0;
  std::uint64_t indications_dropped = 0;
  // Reliable-delivery counters (summed over both control hops).
  std::uint64_t controls_decided = 0;  ///< DRL decisions emitted
  std::uint64_t controls_sent = 0;
  std::uint64_t controls_acked = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t retries_expired = 0;
  std::uint64_t controls_in_flight = 0;  ///< unACKed at end of run
  // Receiver-side exactly-once guards.
  std::uint64_t controls_applied = 0;
  std::uint64_t duplicates_ignored = 0;
  std::uint64_t controls_rejected = 0;
  // EXPLORA degraded-mode watchdog.
  std::uint64_t degradation_events = 0;
  std::uint64_t indications_missed = 0;
  std::uint64_t reports_discarded = 0;
};

struct ExperimentResult {
  std::vector<DecisionRecord> decisions;
  /// The repository's explanation/degradation archives at end of run (the
  /// attribution stream a replayed trace must reproduce byte-identically).
  std::vector<oran::ExplanationRecord> explanations;
  std::vector<oran::DegradationRecord> degradations;
  /// Per report window (decisions x M entries), slice-aggregate KPIs.
  std::vector<double> embb_bitrate_mbps;
  std::vector<double> mmtc_tx_packets;
  std::vector<double> urllc_buffer_bytes;
  /// EXPLORA state (empty/default when deploy_explora is false).
  core::AttributedGraph graph;
  std::vector<core::TransitionEvent> transitions;
  std::optional<SteeringStats> steering;
  std::uint64_t controls_replaced = 0;
  /// Present whenever options.faults or options.reliable is set.
  std::optional<FaultTelemetry> faults;
  /// Present whenever options.serving is set.
  std::optional<ServingTelemetry> serving;

  /// Mean reward across decisions.
  [[nodiscard]] double mean_reward() const;
};

/// Runs one experiment; `system` provides the trained models (borrowed —
/// the xApps hold const references for the run's duration).
[[nodiscard]] ExperimentResult run_experiment(
    const TrainedSystem& system, const netsim::ScenarioConfig& scenario,
    const ExperimentOptions& options, const TrainingConfig& training = {});

/// Agent-family-agnostic variant (the paper's §4.2 claim): any PolicyAgent
/// — PPO, DQN, ... — can drive the pipeline; `profile` selects the reward
/// model EXPLORA uses for expected-reward estimates.
[[nodiscard]] ExperimentResult run_experiment(
    const ml::KpiNormalizer& normalizer, const ml::Autoencoder& autoencoder,
    const ml::PolicyAgent& agent, core::AgentProfile profile,
    const netsim::ScenarioConfig& scenario, const ExperimentOptions& options,
    const TrainingConfig& training = {});

}  // namespace explora::harness
