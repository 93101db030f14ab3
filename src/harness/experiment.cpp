#include "harness/experiment.hpp"

#include <bit>
#include <optional>

#include "common/contracts.hpp"
#include "common/fnv.hpp"
#include "common/telemetry.hpp"
#include "explora/xapp.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/ric.hpp"

namespace explora::harness {

namespace {

/// Folds the serving result stream into an FNV-1a digest. Everything
/// folded in is either an integer or the raw bits of a deterministically
/// computed double, so the digest is byte-identical whenever the decision
/// stream is.
void fold_serving_results(const std::vector<ExplanationResult>& results,
                          ServingTelemetry& telemetry) {
  for (const ExplanationResult& result : results) {
    if (result.shed_reason != xai::serving::ShedReason::kNone) {
      ++telemetry.shed_notices;
    } else {
      ++telemetry.delivered;
    }
    std::uint64_t& digest = telemetry.stream_digest;
    common::fnv1a_word(digest, result.id);
    common::fnv1a_word(
        digest, (static_cast<std::uint64_t>(result.output_index) << 32) |
                    (static_cast<std::uint64_t>(result.tier) << 16) |
                    (static_cast<std::uint64_t>(result.shed_reason) << 8) |
                    (result.degraded ? 2ULL : 0ULL) |
                    (result.from_cache ? 1ULL : 0ULL));
    common::fnv1a_word(digest, static_cast<std::uint64_t>(result.latency));
    for (const double phi : result.attribution) {
      common::fnv1a_word(digest, std::bit_cast<std::uint64_t>(phi));
    }
  }
}

}  // namespace

core::ExploraXapp::Config make_explora_config(
    const ExperimentOptions& options, core::AgentProfile profile,
    std::size_t reports_per_decision) {
  core::ExploraXapp::Config config;
  config.reports_per_decision = reports_per_decision;
  config.reward_weights = core::weights_for(profile);
  config.steering = options.steering;
  config.shield = options.shield;
  config.reliable = options.reliable;
  config.expected_report_period = options.expected_report_period;
  config.degraded_hold_last = options.degraded_hold_last;
  return config;
}

double ExperimentResult::mean_reward() const {
  if (decisions.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& record : decisions) sum += record.reward;
  return sum / static_cast<double>(decisions.size());
}

ExperimentResult run_experiment(const TrainedSystem& system,
                                const netsim::ScenarioConfig& scenario,
                                const ExperimentOptions& options,
                                const TrainingConfig& training) {
  EXPLORA_EXPECTS(system.autoencoder != nullptr && system.agent != nullptr);
  return run_experiment(system.normalizer, *system.autoencoder,
                        *system.agent, system.profile, scenario, options,
                        training);
}

ExperimentResult run_experiment(const ml::KpiNormalizer& normalizer,
                                const ml::Autoencoder& autoencoder,
                                const ml::PolicyAgent& agent,
                                core::AgentProfile profile,
                                const netsim::ScenarioConfig& scenario,
                                const ExperimentOptions& options,
                                const TrainingConfig& training) {
  EXPLORA_EXPECTS(options.decisions > 0);
  EXPLORA_EXPECTS(!options.steering.has_value() || options.deploy_explora);
  EXPLORA_EXPECTS(!options.shield.has_value() || options.deploy_explora);
  EXPLORA_EXPECTS(!options.serving.has_value() || options.deploy_explora);

  const std::size_t reports_per_decision = training.reports_per_decision;
  const core::RewardModel reward_model(core::weights_for(profile));

  // Closed-loop telemetry (harness.experiment.*). The decision-period span
  // is clocked by the registry's tick clock, which the gNB advances every
  // TTI — so each record equals the simulated TTIs one decision spans.
  telemetry::Scope tscope("harness.experiment");
  tscope.counter("runs").add(1);
  telemetry::SpanStat& decision_span = tscope.span("decision_period_ttis");
  telemetry::Registry& tregistry = tscope.registry();

  oran::NearRtRic ric(netsim::make_gnb(scenario));

  if (options.recorder != nullptr) {
    options.recorder->set_tick_source(
        [&tregistry] { return tregistry.now(); });
    ric.router().set_delivery_tap(options.recorder);
  }

  if (options.faults.has_value()) {
    const FaultInjectionOptions& faults = *options.faults;
    oran::LinkImpairments& impairments =
        ric.router().configure_impairments(faults.seed);
    impairments.set_policy(oran::MessageType::kRanControl, "*",
                           faults.control);
    impairments.set_policy(oran::MessageType::kRanControlAck, "*",
                           faults.ack);
    impairments.set_policy(oran::MessageType::kKpmIndication,
                           faults.indication_target, faults.indication);
  }

  oran::DrlXapp::Config drl_config;
  drl_config.reports_per_decision = reports_per_decision;
  drl_config.stochastic = options.stochastic_agent;
  drl_config.prb_temperature = options.prb_temperature;
  drl_config.sched_temperature = options.sched_temperature;
  drl_config.seed = options.xapp_seed;
  drl_config.reliable = options.reliable;
  oran::DrlXapp drl(drl_config, normalizer, autoencoder, agent,
                    ric.router());
  ric.attach_xapp(drl);
  ric.subscribe_indications(std::string(drl.endpoint_name()));

  std::optional<core::ExploraXapp> explora;
  if (options.deploy_explora) {
    explora.emplace(make_explora_config(options, profile,
                                        reports_per_decision),
                    ric.router(), &ric.repository());
    ric.attach_xapp(*explora);
    ric.subscribe_indications(std::string(explora->endpoint_name()));
    ric.route_control_via(std::string(drl.endpoint_name()),
                          std::string(explora->endpoint_name()));
  } else {
    ric.route_control(std::string(drl.endpoint_name()));
  }

  ExperimentResult result;
  result.decisions.reserve(options.decisions);

  auto harvest_window_samples = [&result, &ric, reports_per_decision]() {
    for (const auto& report :
         ric.repository().latest_reports(reports_per_decision)) {
      result.embb_bitrate_mbps.push_back(
          report.value(netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb));
      result.mmtc_tx_packets.push_back(
          report.value(netsim::Kpi::kTxPackets, netsim::Slice::kMmtc));
      result.urllc_buffer_bytes.push_back(
          report.value(netsim::Kpi::kBufferSize, netsim::Slice::kUrllc));
    }
  };
  auto window_reward = [&ric, &reward_model, reports_per_decision]() {
    const auto window = ric.repository().latest_reports(reports_per_decision);
    return reward_model.from_window(window);
  };

  // Explanation serving rides the same closed loop: the service shares
  // the xApp's degradation ladder and is ticked on the registry's TTI
  // clock, so its admission/shed/demote stream is as deterministic as the
  // control stream. It comes up once enough latents exist for a SHAP
  // background.
  std::optional<ExplainService> service;
  std::vector<ml::Vector> serving_background;
  ServingTelemetry serving_telemetry;
  std::int64_t serving_tick = 0;
  auto pump_serving = [&](std::int64_t until) {
    if (!service.has_value()) return;
    service->run_until(serving_tick, until);
    serving_tick = until;
    fold_serving_results(service->drain(), serving_telemetry);
  };

  std::uint64_t replaced_before = 0;
  for (std::size_t d = 0; d < options.decisions; ++d) {
    if (options.drop_ue_at_decision.has_value() &&
        d == *options.drop_ue_at_decision) {
      ric.gnb().detach_one_ue(options.drop_slice);
    }
    // One decision period: M report windows, after which the DRL xApp has
    // emitted (and the route has enforced) the next control.
    {
      telemetry::ScopedSpan span(decision_span, tregistry);
      ric.run_windows(reports_per_decision);
    }
    harvest_window_samples();

    // The reward of this window block credits the previous decision.
    if (!result.decisions.empty()) {
      result.decisions.back().reward = window_reward();
    }

    if (!drl.last_decision().has_value()) continue;  // warm-up block
    DecisionRecord record;
    record.latent = drl.last_latent();
    record.proposed = ml::to_control(drl.last_decision()->action);
    record.enforced = ric.gnb().control();
    if (explora.has_value()) {
      record.replaced = explora->controls_replaced() > replaced_before;
      replaced_before = explora->controls_replaced();
    }
    result.decisions.push_back(std::move(record));

    if (options.serving.has_value() && explora.has_value()) {
      const ServingOptions& serving = *options.serving;
      const auto now = static_cast<std::int64_t>(tregistry.now());
      if (!service.has_value()) {
        serving_background.push_back(drl.last_latent());
        if (serving_background.size() >= serving.background_rows) {
          ExplainService::Config service_config;
          service_config.queue_capacity = serving.queue_capacity;
          service_config.workers = serving.workers;
          service_config.sampled_permutations = serving.sampled_permutations;
          service_config.max_background = serving.background_rows;
          service_config.seed = serving.seed;
          service_config.eval_slow_probability = serving.eval_slow_probability;
          service_config.eval_slow_factor = serving.eval_slow_factor;
          service_config.eval_failure_probability =
              serving.eval_failure_probability;
          service.emplace(agent, serving_background, nullptr, service_config,
                          &explora->ladder());
          serving_tick = now;
        }
      } else {
        pump_serving(now);
        const std::int64_t deadline =
            serving.deadline_ticks > 0 ? now + serving.deadline_ticks : 0;
        for (std::size_t i = 0; i < serving.requests_per_decision; ++i) {
          const auto head =
              static_cast<std::uint32_t>((d + i) % ml::kNumHeads);
          (void)service->submit(drl.last_latent(), head,
                                drl.last_decision()->action, now, deadline);
        }
      }
    }
  }
  // Credit the final decision with one more observation block.
  ric.run_windows(reports_per_decision);
  harvest_window_samples();
  if (!result.decisions.empty()) {
    result.decisions.back().reward = window_reward();
  }

  // Drain the control-plane tail: a control decided on the last report
  // window can still be held by a link delay or awaiting a retry when the
  // loop stops. Release held messages and pump retry ticks (bounded, so a
  // hard-expired control cannot loop forever) until nothing is in flight.
  if (options.reliable.has_value()) {
    auto tail = [&]() {
      std::size_t pending = ric.router().pending_delayed();
      if (drl.reliable() != nullptr) pending += drl.reliable()->in_flight();
      if (explora.has_value() && explora->reliable() != nullptr) {
        pending += explora->reliable()->in_flight();
      }
      return pending;
    };
    for (int i = 0; i < 64 && tail() > 0; ++i) {
      ric.router().flush_delayed();
      drl.pump_reliable();
      if (explora.has_value()) explora->pump_reliable();
    }
  }

  // Drain the serving tail: queued/executing explanations finish on the
  // simulated clock, so advance it (bounded — every pass retires at least
  // one tier-cost worth of work or sheds on deadline).
  if (service.has_value()) {
    const std::int64_t chunk =
        service->config().costs.cost(xai::serving::Tier::kExact) *
            service->config().eval_slow_factor +
        service->config().default_deadline;
    for (int i = 0;
         i < 64 && (service->queue().depth() > 0 || service->busy_workers() > 0);
         ++i) {
      pump_serving(serving_tick + chunk);
    }
    pump_serving(serving_tick + 1);
    serving_telemetry.stats = service->stats();
    serving_telemetry.ladder_demotions = service->ladder().demotions();
    serving_telemetry.ladder_promotions = service->ladder().promotions();
  }
  if (options.serving.has_value()) result.serving = serving_telemetry;

  result.explanations = ric.repository().explanations();
  result.degradations = ric.repository().degradations();

  if (explora.has_value()) {
    result.graph = explora->graph();
    result.transitions = explora->tracker().events();
    result.controls_replaced = explora->controls_replaced();
    if (explora->steering_enabled()) {
      SteeringStats stats;
      stats.decisions = explora->steering().decisions();
      stats.suggestions = explora->steering().suggestions();
      stats.replacements = explora->steering().replacements();
      for (const auto& [action, count] :
           explora->steering().replacement_counts()) {
        stats.per_action_replaced_out.push_back(count);
      }
      result.steering = std::move(stats);
    }
  }

  if (options.faults.has_value() || options.reliable.has_value()) {
    FaultTelemetry telemetry;
    if (const oran::LinkImpairments* impairments =
            ric.router().impairments()) {
      telemetry.controls_dropped =
          impairments->dropped_by_type(oran::MessageType::kRanControl);
      telemetry.controls_delayed =
          impairments->delayed_by_type(oran::MessageType::kRanControl);
      telemetry.controls_duplicated =
          impairments->duplicated_by_type(oran::MessageType::kRanControl);
      telemetry.acks_dropped =
          impairments->dropped_by_type(oran::MessageType::kRanControlAck);
      telemetry.indications_dropped =
          impairments->dropped_by_type(oran::MessageType::kKpmIndication);
    }
    auto add_sender = [&telemetry](const oran::ReliableControlSender* s) {
      if (s == nullptr) return;
      telemetry.controls_sent += s->sent();
      telemetry.controls_acked += s->acked();
      telemetry.retransmissions += s->retransmissions();
      telemetry.retries_expired += s->expired();
      telemetry.controls_in_flight += s->in_flight();
    };
    telemetry.controls_decided = drl.decisions_made();
    add_sender(drl.reliable());
    if (explora.has_value()) add_sender(explora->reliable());
    telemetry.controls_applied = ric.e2_termination().controls_applied();
    telemetry.duplicates_ignored =
        ric.e2_termination().duplicate_controls_ignored();
    telemetry.controls_rejected = ric.e2_termination().controls_rejected();
    if (explora.has_value()) {
      telemetry.duplicates_ignored += explora->duplicate_controls_ignored();
      telemetry.degradation_events = explora->degradation_events();
      telemetry.indications_missed = explora->indications_missed();
      telemetry.reports_discarded = explora->reports_discarded();
    }
    result.faults = telemetry;
  }
  return result;
}

}  // namespace explora::harness
