#include "explora/xapp.hpp"

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace explora::core {

ExploraXapp::ExploraXapp(Config config, oran::RmrRouter& router,
                         oran::DataRepository* repository)
    : config_(std::move(config)),
      router_(&router),
      repository_(repository),
      reward_(config_.reward_weights),
      graph_(config_.graph) {
  EXPLORA_EXPECTS(config_.reports_per_decision > 0);
  EXPLORA_EXPECTS(config_.expected_report_period >= 0);
  if (config_.steering.has_value()) {
    steering_.emplace(graph_, reward_, *config_.steering);
  }
  if (config_.shield.has_value()) {
    shield_ = config_.shield;
  }
  if (config_.reliable.has_value()) {
    reliable_.emplace(*config_.reliable, router, config_.name);
  }
  report_period_ = config_.expected_report_period;

  // Unified degradation ladder: the staleness watchdog is its gap/clean
  // axis; recovery needs the same clean streak the old watchdog required.
  // Load/breaker tier movements (driven by an ExplainService sharing this
  // ladder) are archived here as demote/promote DegradationRecords, so
  // the repository holds ONE degradation history for the whole xApp.
  // Stale enter/recover records are archived by enter_degraded /
  // exit_degraded themselves (they carry gap measurements the ladder
  // does not know), so those triggers are skipped here.
  xai::serving::LadderConfig ladder_config;
  ladder_config.recovery_clean_reports = recovery_target();
  ladder_ = xai::serving::DegradationLadder(ladder_config);
  ladder_.set_transition_hook(
      [this](const xai::serving::DegradationLadder::Transition& t) {
        using Trigger = xai::serving::DegradationLadder::Trigger;
        if (t.trigger != Trigger::kLoad && t.trigger != Trigger::kBreaker) {
          return;
        }
        if (repository_ == nullptr) return;
        const bool demote = t.to > t.from;
        repository_->store_degradation(oran::DegradationRecord{
            .phase = demote ? oran::DegradationRecord::Phase::kDemote
                            : oran::DegradationRecord::Phase::kPromote,
            .detected_at = t.at,
            .missed_windows = 0,
            .tier_from = static_cast<std::uint8_t>(t.from),
            .tier_to = static_cast<std::uint8_t>(t.to),
            .detail = common::format(
                "serving tier {} -> {} ({})", to_string(t.from),
                to_string(t.to), to_string(t.trigger)),
        });
      });

  telemetry::Scope scope("explora.xapp");
  tm_indications_ = &scope.counter("indications");
  tm_controls_seen_ = &scope.counter("controls_seen");
  tm_controls_replaced_ = &scope.counter("controls_replaced");
  tm_windows_finalized_ = &scope.counter("windows_finalized");
  tm_reports_discarded_ = &scope.counter("reports_discarded");
  tm_degraded_episodes_ = &scope.counter("degraded_episodes");
  tm_degraded_ticks_ = &scope.span("degraded_ticks");
}

const ActionShield& ExploraXapp::shield() const {
  EXPLORA_EXPECTS(shield_.has_value());
  return *shield_;
}

const ActionSteering& ExploraXapp::steering() const {
  EXPLORA_EXPECTS(steering_.has_value());
  return *steering_;
}

void ExploraXapp::on_a1_policy(const oran::A1Policy& policy) {
  ++a1_policies_applied_;
  common::logf(common::LogLevel::kInfo, "explora-xapp",
               "A1 policy {}: intent {}", policy.policy_id,
               oran::to_string(policy.intent));
  if (policy.intent == oran::A1Intent::kObserveOnly) {
    steering_.reset();
    return;
  }
  ActionSteering::Config config;
  config.observation_window = policy.observation_window;
  switch (policy.intent) {
    case oran::A1Intent::kMaxReward:
      config.strategy = SteeringStrategy::kMaxReward;
      break;
    case oran::A1Intent::kMinReward:
      config.strategy = SteeringStrategy::kMinReward;
      break;
    case oran::A1Intent::kImproveBitrate:
      config.strategy = SteeringStrategy::kImproveBitrate;
      break;
    case oran::A1Intent::kObserveOnly:
      break;  // handled above
  }
  steering_.emplace(graph_, reward_, config);
}

void ExploraXapp::on_message(const oran::RicMessage& message) {
  switch (message.type) {
    case oran::MessageType::kKpmIndication: {
      // Each indication is one reliable-delivery tick for the downstream
      // hop: overdue unACKed forwards are resent at window cadence.
      if (reliable_.has_value()) reliable_->on_tick();
      const netsim::KpiReport& report = message.kpm().report;
      tm_indications_->add(1);
      observe_indication_timing(report);
      if (ladder_.stale()) {
        // Quarantine: count clean in-sequence reports, feed nothing to the
        // graph or the transition tracker until a full clean window passed.
        // (The report that revealed a gap already went through record_gap,
        // so it counts as clean streak 1 — same semantics as before the
        // ladder unification.)
        if (!ladder_.record_clean(report.window_end)) return;
        exit_degraded(report.window_end);  // resume with this report
      }
      if (!current_action_.has_value()) return;  // nothing enforced yet
      // b(a): the consequence of the enforced action on the future state.
      graph_.record_consequence(report);
      if (pending_count_ < pending_window_.size()) {
        pending_window_[pending_count_] = report;
      } else {
        pending_window_.push_back(report);
      }
      if (++pending_count_ >= config_.reports_per_decision) {
        finalize_decision_window();
      }
      return;
    }
    case oran::MessageType::kRanControlAck: {
      if (reliable_.has_value()) {
        reliable_->on_ack(message.control_ack().seq);
      }
      return;
    }
    case oran::MessageType::kRanControl: {
      const oran::RanControl& ran_control = message.ran_control();
      if (ran_control.seq > 0) {
        // Per-hop reliability: confirm receipt to the upstream sender and
        // process each (sender, seq) exactly once — a retransmission whose
        // original arrived is re-ACKed (its ACK may have been lost) but
        // never re-steered, re-archived or re-forwarded.
        const bool first_time =
            seen_upstream_seqs_.emplace(message.sender, ran_control.seq)
                .second;
        router_->send(
            oran::make_ran_control_ack(config_.name, ran_control.seq));
        if (!first_time) {
          ++duplicate_controls_ignored_;
          return;
        }
      }
      ++controls_seen_;
      tm_controls_seen_->add(1);
      const netsim::SlicingControl proposed = ran_control.control;

      // Close the still-open window of the previous action (the agent may
      // decide on a different cadence than our window bookkeeping).
      if (pending_count_ > 0) finalize_decision_window();

      netsim::SlicingControl enforced = proposed;
      std::string rationale;
      bool replaced = false;
      if (ladder_.stale()) {
        // Telemetry is stale: steering would reason over gapped evidence,
        // so fall back to hold-last-safe or shield-only forwarding.
        if (config_.degraded_hold_last && last_safe_action_.has_value()) {
          enforced = *last_safe_action_;
          replaced = enforced != proposed;
          rationale = common::format(
              "degraded mode: holding last safe action {}",
              enforced.to_string());
        } else {
          rationale = "degraded mode: shield-only forwarding";
        }
        if (shield_.has_value()) {
          ShieldOutcome shielded = shield_->apply(enforced);
          if (shielded.blocked) {
            enforced = shielded.enforced;
            replaced = true;
            rationale = "degraded mode: " + shielded.rationale;
          }
        }
      } else {
        // Opt 2 first: the shield is a hard constraint; whatever it
        // enforces is what steering (Opt 1) then reasons about.
        if (shield_.has_value()) {
          ShieldOutcome shielded = shield_->apply(enforced);
          if (shielded.blocked) {
            enforced = shielded.enforced;
            replaced = true;
            rationale = std::move(shielded.rationale);
          }
        }
        if (steering_.has_value()) {
          SteeringOutcome outcome =
              steering_->steer(enforced, current_action_);
          if (outcome.replaced || !replaced) {
            rationale = std::move(outcome.rationale);
          }
          enforced = outcome.enforced;
          replaced = replaced || outcome.replaced;
        }
      }
      if (rationale.empty()) {
        rationale = "forwarded unchanged (steering disabled)";
      }
      if (replaced) {
        ++controls_replaced_;
        tm_controls_replaced_->add(1);
      }

      // Node visits and temporal edges track genuinely enforced actions
      // even while degraded; only KPI attribution and transition windows
      // freeze (they would ingest gapped data).
      graph_.begin_action(enforced);
      current_action_ = enforced;
      if (!ladder_.stale()) last_safe_action_ = enforced;

      if (repository_ != nullptr) {
        repository_->store_explanation(oran::ExplanationRecord{
            .decision_id = ran_control.decision_id,
            .proposed = proposed,
            .enforced = enforced,
            .replaced = replaced,
            .explanation = std::move(rationale),
        });
      }
      if (reliable_.has_value()) {
        reliable_->send(enforced, ran_control.decision_id);
      } else {
        router_->send(oran::make_ran_control(config_.name, enforced,
                                             ran_control.decision_id));
      }
      return;
    }
  }
}

void ExploraXapp::observe_indication_timing(const netsim::KpiReport& report) {
  const netsim::Tick window_end = report.window_end;
  std::uint64_t missed = 0;
  if (last_window_end_.has_value()) {
    const netsim::Tick gap = window_end - *last_window_end_;
    if (report_period_ <= 0) {
      // First spacing observed fixes the expected cadence.
      report_period_ = gap > 0 ? gap : 0;
    } else if (gap > report_period_) {
      missed = static_cast<std::uint64_t>((gap - 1) / report_period_);
    }
  }
  last_window_end_ = window_end;
  if (missed > 0) enter_degraded(window_end, missed);
}

void ExploraXapp::enter_degraded(netsim::Tick detected_at,
                                 std::uint64_t missed) {
  indications_missed_ += missed;
  reports_discarded_ += pending_count_;
  tm_reports_discarded_->add(pending_count_);
  pending_count_ = 0;  // never build transitions from a gapped window
  const bool was_stale = ladder_.stale();
  ladder_.record_gap(detected_at);  // a repeat gap restarts the quarantine
  if (was_stale) return;
  ++degradation_events_;
  tm_degraded_episodes_->add(1);
  degraded_entered_at_ = detected_at;
  common::logf(common::LogLevel::kWarn, "explora-xapp",
               "KPM stream gap at tick {} (~{} indication(s) missed): "
               "entering degraded mode",
               detected_at, missed);
  if (repository_ != nullptr) {
    repository_->store_degradation(oran::DegradationRecord{
        .phase = oran::DegradationRecord::Phase::kEnter,
        .detected_at = detected_at,
        .missed_windows = missed,
        .detail = common::format(
            "KPM indication gap; freezing graph/transition updates, "
            "{} forwarding",
            config_.degraded_hold_last ? "hold-last-safe"
                                       : "shield-only"),
    });
  }
}

void ExploraXapp::exit_degraded(netsim::Tick detected_at) {
  // The ladder already cleared its stale bit (record_clean completed the
  // streak); this hook only archives/logs the recovery.
  tm_degraded_ticks_->record(detected_at - degraded_entered_at_);
  common::logf(common::LogLevel::kInfo, "explora-xapp",
               "KPM stream recovered at tick {}: leaving degraded mode",
               detected_at);
  if (repository_ != nullptr) {
    repository_->store_degradation(oran::DegradationRecord{
        .phase = oran::DegradationRecord::Phase::kRecover,
        .detected_at = detected_at,
        .missed_windows = 0,
        .detail = common::format("{} consecutive in-sequence indications",
                                 recovery_target()),
    });
  }
}

void ExploraXapp::finalize_decision_window() {
  EXPLORA_EXPECTS(current_action_.has_value());
  EXPLORA_EXPECTS(pending_count_ > 0);
  const std::span<const netsim::KpiReport> window(pending_window_.data(),
                                                  pending_count_);
  tracker_.record_step(*current_action_, window);
  if (steering_.has_value()) {
    steering_->push_measured_reward(reward_.from_window(window));
  }
  pending_count_ = 0;
  tm_windows_finalized_->add(1);
}

DistilledKnowledge ExploraXapp::explain(
    KnowledgeDistiller::Config distiller) const {
  EXPLORA_EXPECTS(!tracker_.events().empty());
  return KnowledgeDistiller(distiller).distill(tracker_.events());
}

}  // namespace explora::core
