// The EXPLORA xApp (§5.1, Fig. 6): a standalone xApp interposed on the
// RAN-control route. It watches E2 KPM indications to build the attributed
// graph online (module 1, XAI) and optionally steers the DRL agent's
// proposed actions per Algorithm 1 (module 2, EDBR) before forwarding them
// to the E2 termination. Every decision is archived as a
// (state, action, explanation) record in the RIC data repository.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "explora/distill.hpp"
#include "explora/edbr.hpp"
#include "explora/graph.hpp"
#include "explora/reward.hpp"
#include "explora/shield.hpp"
#include "explora/transitions.hpp"
#include "oran/a1.hpp"
#include "oran/data_repository.hpp"
#include "oran/reliable.hpp"
#include "oran/rmr.hpp"
#include "xai/serving.hpp"

namespace explora::core {

class ExploraXapp final : public oran::RmrEndpoint,
                          public oran::A1PolicyConsumer {
 public:
  struct Config {
    std::string name = "explora_xapp";
    /// KPM indications forming one decision window (M in the paper).
    std::size_t reports_per_decision = 10;
    AttributedGraph::Config graph{};
    RewardWeights reward_weights = RewardWeights::high_throughput();
    /// Enables EDBR steering; without it the xApp observes and explains
    /// but always forwards the agent's action unchanged.
    std::optional<ActionSteering::Config> steering;
    /// Optional action shield (the paper's Opt 2): applied *before*
    /// steering, unconditionally blocking rule-violating proposals.
    std::optional<ActionShield> shield;

    // --- resilience (fault-injected deployments) -------------------------
    /// Reliable forwarding of enforced controls to the E2 termination
    /// (seq + ACK + retry); unset keeps fire-and-forget forwarding.
    std::optional<oran::ReliableControlSender::Config> reliable;
    /// Expected KPM indication spacing in TTIs (the gNB report period).
    /// 0 = infer from the first two indications.
    netsim::Tick expected_report_period = 0;
    /// Consecutive in-sequence indications required to exit degraded
    /// mode; 0 = reports_per_decision (one full clean window).
    std::size_t recovery_reports = 0;
    /// Degraded-mode forwarding policy: false = shield-only (forward the
    /// agent's proposal through the shield, skip steering), true = hold
    /// the last action enforced while the telemetry stream was healthy.
    bool degraded_hold_last = false;
  };

  /// @param router used to forward (possibly substituted) controls.
  /// @param repository archive for explanation records; may be null.
  ExploraXapp(Config config, oran::RmrRouter& router,
              oran::DataRepository* repository);

  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return config_.name;
  }
  void on_message(const oran::RicMessage& message) override;

  /// A1 policy guidance from the non-RT RIC: switches the EDBR intent at
  /// runtime. Graph knowledge is retained; steering statistics restart
  /// with the new policy (they describe the policy's own behaviour).
  void on_a1_policy(const oran::A1Policy& policy) override;
  [[nodiscard]] std::uint64_t a1_policies_applied() const noexcept {
    return a1_policies_applied_;
  }

  // --- XAI module access --------------------------------------------------
  [[nodiscard]] const AttributedGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const TransitionTracker& tracker() const noexcept {
    return tracker_;
  }
  /// Synthesizes the post-hoc explanations (DT + Table 2/4 summaries) from
  /// the transitions observed so far.
  [[nodiscard]] DistilledKnowledge explain(
      KnowledgeDistiller::Config distiller = {}) const;

  // --- EDBR access ----------------------------------------------------------
  [[nodiscard]] bool steering_enabled() const noexcept {
    return steering_.has_value();
  }
  [[nodiscard]] const ActionSteering& steering() const;
  [[nodiscard]] std::uint64_t controls_seen() const noexcept {
    return controls_seen_;
  }
  [[nodiscard]] std::uint64_t controls_replaced() const noexcept {
    return controls_replaced_;
  }
  [[nodiscard]] bool shield_enabled() const noexcept {
    return shield_.has_value();
  }
  [[nodiscard]] const ActionShield& shield() const;
  [[nodiscard]] const RewardModel& reward_model() const noexcept {
    return reward_;
  }

  // --- resilience access ----------------------------------------------------
  /// True while the staleness watchdog distrusts the KPM stream. This is
  /// the staleness axis of the unified degradation ladder — the same
  /// state machine the explanation-serving layer reads, so the watchdog's
  /// clean-streak accounting and the serving-tier hysteresis can never
  /// disagree about the active tier.
  [[nodiscard]] bool degraded() const noexcept { return ladder_.stale(); }
  /// The xApp's single degradation state machine. Hand this to an
  /// ExplainService (shared_ladder) to serve explanations under the same
  /// staleness/load/breaker state the control path honours.
  [[nodiscard]] xai::serving::DegradationLadder& ladder() noexcept {
    return ladder_;
  }
  [[nodiscard]] const xai::serving::DegradationLadder& ladder()
      const noexcept {
    return ladder_;
  }
  /// Times the watchdog entered degraded mode.
  [[nodiscard]] std::uint64_t degradation_events() const noexcept {
    return degradation_events_;
  }
  /// KPI reports discarded from partial (gapped) decision windows.
  [[nodiscard]] std::uint64_t reports_discarded() const noexcept {
    return reports_discarded_;
  }
  /// Estimated KPM indications lost across all detected gaps.
  [[nodiscard]] std::uint64_t indications_missed() const noexcept {
    return indications_missed_;
  }
  /// Retransmitted upstream controls suppressed by the (sender, seq) guard.
  [[nodiscard]] std::uint64_t duplicate_controls_ignored() const noexcept {
    return duplicate_controls_ignored_;
  }
  /// Reliable-hop telemetry (nullptr when config.reliable is unset).
  [[nodiscard]] const oran::ReliableControlSender* reliable() const noexcept {
    return reliable_.has_value() ? &*reliable_ : nullptr;
  }
  /// Advances reliable-delivery time without an indication — used by the
  /// harness to drain in-flight controls after the last report window.
  void pump_reliable() {
    if (reliable_.has_value()) reliable_->on_tick();
  }

 private:
  void finalize_decision_window();
  void observe_indication_timing(const netsim::KpiReport& report);
  void enter_degraded(netsim::Tick detected_at, std::uint64_t missed);
  void exit_degraded(netsim::Tick detected_at);
  [[nodiscard]] std::size_t recovery_target() const noexcept {
    return config_.recovery_reports > 0 ? config_.recovery_reports
                                        : config_.reports_per_decision;
  }

  Config config_;
  oran::RmrRouter* router_;
  oran::DataRepository* repository_;
  RewardModel reward_;
  AttributedGraph graph_;
  TransitionTracker tracker_;
  std::optional<ActionSteering> steering_;
  std::optional<ActionShield> shield_;
  std::optional<oran::ReliableControlSender> reliable_;

  std::optional<netsim::SlicingControl> current_action_;
  /// Reports of the open decision window: the first pending_count_
  /// slots. Slots are copy-assigned, never freed, so each report's
  /// vectors reuse the capacity of an earlier window's.
  std::vector<netsim::KpiReport> pending_window_;
  std::size_t pending_count_ = 0;
  std::uint64_t controls_seen_ = 0;
  std::uint64_t controls_replaced_ = 0;
  std::uint64_t a1_policies_applied_ = 0;

  // Staleness watchdog state. The degraded bit and clean-streak counter
  // live inside the unified ladder (configured in the constructor with
  // recovery_clean_reports = recovery_target()); only gap *measurement*
  // stays here.
  std::optional<netsim::Tick> last_window_end_;
  netsim::Tick report_period_ = 0;
  xai::serving::DegradationLadder ladder_;
  std::uint64_t degradation_events_ = 0;
  std::uint64_t reports_discarded_ = 0;
  std::uint64_t indications_missed_ = 0;
  /// Last action enforced while the stream was healthy (hold-last policy).
  std::optional<netsim::SlicingControl> last_safe_action_;
  /// (sender, seq) of upstream controls already processed (apply-once).
  std::set<std::pair<std::string, std::uint64_t>> seen_upstream_seqs_;
  std::uint64_t duplicate_controls_ignored_ = 0;

  // Telemetry (explora.xapp.*), bound at construction. degraded_ticks is
  // a span over gNB ticks from gap detection to recovery, one record per
  // degraded episode.
  telemetry::Counter* tm_indications_;
  telemetry::Counter* tm_controls_seen_;
  telemetry::Counter* tm_controls_replaced_;
  telemetry::Counter* tm_windows_finalized_;
  telemetry::Counter* tm_reports_discarded_;
  telemetry::Counter* tm_degraded_episodes_;
  telemetry::SpanStat* tm_degraded_ticks_;
  netsim::Tick degraded_entered_at_ = 0;
};

}  // namespace explora::core
