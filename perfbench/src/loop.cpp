#include "loop.hpp"

#include <bit>
#include <memory>
#include <utility>

#include "common/contracts.hpp"
#include "common/telemetry.hpp"
#include "explora/explain_service.hpp"
#include "explora/xapp.hpp"
#include "ml/features.hpp"
#include "netsim/gnb.hpp"
#include "oran/data_repository.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/e2_term.hpp"
#include "oran/rmr.hpp"

namespace perfbench {

namespace {

using namespace explora;

/// The FNV-1a fold harness::run_experiment applies to the serving result
/// stream, so the two digests are comparable.
void fnv_mix(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xffULL;
    digest *= 1099511628211ULL;
  }
}

void fold_serving_results(const std::vector<ExplanationResult>& results,
                          harness::ServingTelemetry& telemetry,
                          std::vector<std::int64_t>& latencies) {
  for (const ExplanationResult& result : results) {
    if (result.shed_reason != xai::serving::ShedReason::kNone) {
      ++telemetry.shed_notices;
    } else {
      ++telemetry.delivered;
      latencies.push_back(result.latency);
    }
    fnv_mix(telemetry.stream_digest, result.id);
    fnv_mix(telemetry.stream_digest,
            (static_cast<std::uint64_t>(result.output_index) << 32) |
                (static_cast<std::uint64_t>(result.tier) << 16) |
                (static_cast<std::uint64_t>(result.shed_reason) << 8) |
                (result.degraded ? 2ULL : 0ULL) |
                (result.from_cache ? 1ULL : 0ULL));
    fnv_mix(telemetry.stream_digest,
            static_cast<std::uint64_t>(result.latency));
    for (const double phi : result.attribution) {
      fnv_mix(telemetry.stream_digest, std::bit_cast<std::uint64_t>(phi));
    }
  }
}

class Loop;

enum class Role : std::uint8_t { kRepo, kDrl, kExplora, kE2term };

/// Stands in for one endpoint on the router; every delivery goes through
/// Loop::deliver, which times it and forwards to the real endpoint.
class Proxy final : public oran::RmrEndpoint {
 public:
  Proxy(Role role, oran::RmrEndpoint& inner, Loop& loop)
      : role_(role), inner_(&inner), loop_(&loop) {}
  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return inner_->endpoint_name();
  }
  void on_message(const oran::RicMessage& message) override;

 private:
  Role role_;
  oran::RmrEndpoint* inner_;
  Loop* loop_;
};

/// A control as the E2 termination applied it, keyed by the number of
/// report windows published before it landed.
struct AppliedControl {
  std::uint64_t after_windows = 0;
  netsim::SlicingControl control;
};

class Loop {
 public:
  Loop(const System& system, const netsim::ScenarioConfig& scenario,
       const harness::ExperimentOptions& options, Tracer* tracer)
      : system_(system),
        options_(options),
        tracer_(tracer),
        registry_(telemetry::active_registry()),
        reward_model_(core::weights_for(system.trained.profile)),
        gnb_(netsim::make_gnb(scenario)),
        e2term_(*gnb_, router_),
        drl_(drl_config(options, system.training), system.trained.normalizer,
             *system.trained.autoencoder, *system.trained.agent, router_),
        explora_(harness::make_explora_config(
                     options, system.trained.profile,
                     system.training.reports_per_decision),
                 router_, &repo_),
        repo_proxy_(Role::kRepo, repo_, *this),
        e2term_proxy_(Role::kE2term, e2term_, *this),
        drl_proxy_(Role::kDrl, drl_, *this),
        explora_proxy_(Role::kExplora, explora_, *this) {
    // NearRtRic's wiring, then run_experiment's: the order of targets on
    // the KPM route is the delivery order, so it must match.
    router_.register_endpoint(repo_proxy_);
    router_.register_endpoint(e2term_proxy_);
    router_.add_route(oran::MessageType::kKpmIndication, "e2term",
                      "data_repo");
    const std::string drl(drl_.endpoint_name());
    const std::string xapp(explora_.endpoint_name());
    router_.register_endpoint(drl_proxy_);
    router_.add_route(oran::MessageType::kKpmIndication, "e2term", drl);
    router_.register_endpoint(explora_proxy_);
    router_.add_route(oran::MessageType::kKpmIndication, "e2term", xapp);
    router_.add_route(oran::MessageType::kRanControl, drl, xapp);
    router_.add_route(oran::MessageType::kRanControl, xapp, "e2term");
    router_.add_route(oran::MessageType::kRanControlAck, "e2term", xapp);
    router_.add_route(oran::MessageType::kRanControlAck, xapp, drl);
  }

  void deliver(Role role, oran::RmrEndpoint& inner,
               const oran::RicMessage& message);

  void run();
  void replay_netsim(const netsim::ScenarioConfig& scenario);
  [[nodiscard]] EpisodeResult take_result() { return std::move(result_); }

 private:
  static oran::DrlXapp::Config drl_config(
      const harness::ExperimentOptions& options,
      const harness::TrainingConfig& training) {
    oran::DrlXapp::Config config;
    config.reports_per_decision = training.reports_per_decision;
    config.stochastic = options.stochastic_agent;
    config.prb_temperature = options.prb_temperature;
    config.sched_temperature = options.sched_temperature;
    config.seed = options.xapp_seed;
    return config;
  }

  void run_windows();
  void harvest(harness::ExperimentResult& sink);
  void pump_serving(std::int64_t until);
  void serve(std::size_t d);

  const System& system_;
  const harness::ExperimentOptions& options_;
  Tracer* tracer_;
  telemetry::Registry& registry_;
  core::RewardModel reward_model_;

  std::unique_ptr<netsim::Gnb> gnb_;
  oran::RmrRouter router_;
  oran::DataRepository repo_;
  oran::E2Termination e2term_;
  oran::DrlXapp drl_;
  core::ExploraXapp explora_;
  Proxy repo_proxy_;
  Proxy e2term_proxy_;
  Proxy drl_proxy_;
  Proxy explora_proxy_;

  std::optional<ExplainService> service_;
  std::vector<ml::Vector> serving_background_;
  std::int64_t serving_tick_ = 0;

  std::int64_t control_start_ns_ = 0;
  std::vector<AppliedControl> applied_;
  EpisodeResult result_;
};

void Proxy::on_message(const oran::RicMessage& message) {
  loop_->deliver(role_, *inner_, message);
}

void Loop::deliver(Role role, oran::RmrEndpoint& inner,
                   const oran::RicMessage& message) {
  ++result_.deliveries;
  switch (role) {
    case Role::kRepo: {
      ScopedSpan span(tracer_, Layer::kRepo);
      inner.on_message(message);
      return;
    }
    case Role::kDrl: {
      ScopedSpan span(tracer_, Layer::kDrlIngest);
      const std::int64_t start = now_ns();
      const std::uint64_t before = drl_.decisions_made();
      inner.on_message(message);
      if (drl_.decisions_made() != before) {
        control_start_ns_ = start;
        span.relabel(Layer::kDrlDecide);
      }
      return;
    }
    case Role::kExplora: {
      const bool kpm = message.type == oran::MessageType::kKpmIndication;
      ScopedSpan span(tracer_,
                      kpm ? Layer::kExploraKpm : Layer::kExploraControl);
      inner.on_message(message);
      return;
    }
    case Role::kE2term: {
      const std::uint64_t before = e2term_.controls_applied();
      {
        ScopedSpan span(tracer_, Layer::kE2termApply);
        inner.on_message(message);
      }
      if (e2term_.controls_applied() != before) {
        result_.control_path_ns.push_back(now_ns() - control_start_ns_);
        if (tracer_ != nullptr) {
          applied_.push_back(
              AppliedControl{result_.windows, message.ran_control().control});
        }
      }
      return;
    }
  }
}

void Loop::run_windows() {
  for (std::size_t w = 0; w < system_.training.reports_per_decision; ++w) {
    ScopedSpan span(tracer_, Layer::kWindow);
    ++result_.windows;
    e2term_.collect_and_publish();
  }
}

// run_experiment's per-decision bookkeeping: KPI harvest and the reward
// credited to the previous decision.
void Loop::harvest(harness::ExperimentResult& sink) {
  const std::size_t m = system_.training.reports_per_decision;
  for (const auto& report : repo_.latest_reports(m)) {
    sink.embb_bitrate_mbps.push_back(
        report.value(netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb));
    sink.mmtc_tx_packets.push_back(
        report.value(netsim::Kpi::kTxPackets, netsim::Slice::kMmtc));
    sink.urllc_buffer_bytes.push_back(
        report.value(netsim::Kpi::kBufferSize, netsim::Slice::kUrllc));
  }
  if (!result_.decisions.empty()) {
    result_.decisions.back().reward =
        reward_model_.from_window(repo_.latest_reports(m));
  }
}

void Loop::pump_serving(std::int64_t until) {
  if (!service_.has_value()) return;
  if (tracer_ == nullptr) {
    service_->run_until(serving_tick_, until);
  } else {
    for (std::int64_t t = serving_tick_ + 1; t <= until; ++t) {
      ScopedSpan span(tracer_, Layer::kServingTickIdle);
      const std::size_t depth = service_->queue().depth();
      service_->on_tick(t);
      if (service_->queue().depth() < depth) {
        span.relabel(Layer::kServingTickBusy);
      }
    }
  }
  serving_tick_ = until;
  fold_serving_results(service_->drain(), *result_.serving,
                       result_.serving_latency_ticks);
}

// run_experiment's serving step for decision `d`.
void Loop::serve(std::size_t d) {
  const harness::ServingOptions& serving = *options_.serving;
  const auto now = static_cast<std::int64_t>(registry_.now());
  if (!service_.has_value()) {
    serving_background_.push_back(drl_.last_latent());
    if (serving_background_.size() >= serving.background_rows) {
      ExplainService::Config config;
      config.queue_capacity = serving.queue_capacity;
      config.workers = serving.workers;
      config.sampled_permutations = serving.sampled_permutations;
      config.max_background = serving.background_rows;
      config.seed = serving.seed;
      config.eval_slow_probability = serving.eval_slow_probability;
      config.eval_slow_factor = serving.eval_slow_factor;
      config.eval_failure_probability = serving.eval_failure_probability;
      service_.emplace(*system_.trained.agent, serving_background_, nullptr,
                       config, &explora_.ladder());
      serving_tick_ = now;
    }
    return;
  }
  pump_serving(now);
  const std::int64_t deadline =
      serving.deadline_ticks > 0 ? now + serving.deadline_ticks : 0;
  for (std::size_t i = 0; i < serving.requests_per_decision; ++i) {
    ScopedSpan span(tracer_, Layer::kServingSubmit);
    const auto head = static_cast<std::uint32_t>((d + i) % ml::kNumHeads);
    (void)service_->submit(drl_.last_latent(), head,
                           drl_.last_decision()->action, now, deadline);
  }
}

void Loop::run() {
  const std::int64_t start = now_ns();
  const std::size_t decisions = options_.decisions;
  result_.decisions.reserve(decisions);
  result_.decision_ns.reserve(decisions);
  result_.control_path_ns.reserve(decisions);
  if (options_.serving.has_value()) {
    result_.serving = harness::ServingTelemetry{};
  }
  harness::ExperimentResult samples;  // harvested KPIs, as run_experiment
  std::uint64_t replaced_before = 0;

  for (std::size_t d = 0; d < decisions; ++d) {
    if (tracer_ != nullptr) tracer_->set_decision(static_cast<std::uint32_t>(d));
    const std::int64_t period_start = now_ns();
    ScopedSpan period(tracer_, Layer::kDecision);
    run_windows();
    {
      ScopedSpan span(tracer_, Layer::kBookkeeping);
      harvest(samples);
      if (drl_.last_decision().has_value()) {
        harness::DecisionRecord record;
        record.latent = drl_.last_latent();
        record.proposed = ml::to_control(drl_.last_decision()->action);
        record.enforced = gnb_->control();
        record.replaced = explora_.controls_replaced() > replaced_before;
        replaced_before = explora_.controls_replaced();
        result_.decisions.push_back(std::move(record));
      }
    }
    if (drl_.last_decision().has_value() && options_.serving.has_value()) {
      serve(d);
    }
    result_.decision_ns.push_back(now_ns() - period_start);
  }

  {
    // Credit the final decision, then drain the serving tail on the
    // simulated clock exactly as run_experiment does.
    if (tracer_ != nullptr) {
      tracer_->set_decision(static_cast<std::uint32_t>(decisions));
    }
    ScopedSpan tail(tracer_, Layer::kDecision);
    run_windows();
    {
      ScopedSpan span(tracer_, Layer::kBookkeeping);
      harvest(samples);
    }
    if (service_.has_value()) {
      const std::int64_t chunk =
          service_->config().costs.cost(xai::serving::Tier::kExact) *
              service_->config().eval_slow_factor +
          service_->config().default_deadline;
      for (int i = 0; i < 64 && (service_->queue().depth() > 0 ||
                                 service_->busy_workers() > 0);
           ++i) {
        pump_serving(serving_tick_ + chunk);
      }
      pump_serving(serving_tick_ + 1);
      result_.serving->stats = service_->stats();
      result_.serving->ladder_demotions = service_->ladder().demotions();
      result_.serving->ladder_promotions = service_->ladder().promotions();
    }
  }
  result_.wall_ns = now_ns() - start;

  result_.explanations = repo_.explanations().size();
  result_.controls_rejected = e2term_.controls_rejected();
  result_.controls_replaced = explora_.controls_replaced();
  result_.graph_nodes = explora_.graph().node_count();
  result_.transitions = explora_.tracker().events();
  result_.ladder_exact =
      explora_.degradation_events() == 0 &&
      explora_.ladder().active_tier() == xai::serving::Tier::kExact;
}

// Re-runs the episode's report windows on a fresh gNB with the same seed,
// applying each enforced control where the E2 termination applied it, so
// the simulator's share of a window can be timed without RMR around it.
void Loop::replay_netsim(const netsim::ScenarioConfig& scenario) {
  const auto& reports = repo_.all_reports();
  EpisodeResult& result = result_;  // run() has finished filling it
  result.netsim_reports_match = reports.size() == result.windows;
  telemetry::ScopedRegistry scratch;
  const std::unique_ptr<netsim::Gnb> gnb = netsim::make_gnb(scenario);
  std::size_t next = 0;
  for (std::uint64_t w = 0; w < result.windows; ++w) {
    while (next < applied_.size() && applied_[next].after_windows == w) {
      gnb->apply_control(applied_[next++].control);
    }
    const std::int64_t start = now_ns();
    const netsim::KpiReport report = gnb->run_report_window();
    result.netsim_ns += now_ns() - start;
    if (result.netsim_reports_match && !(report == reports[w])) {
      result.netsim_reports_match = false;
    }
  }
}

}  // namespace

netsim::ScenarioConfig trf1_scenario(std::uint64_t seed) {
  netsim::ScenarioConfig scenario;
  scenario.profile = netsim::TrafficProfile::kTrf1;
  scenario.users_per_slice = netsim::users_for_count(6, std::nullopt);
  scenario.seed = seed;
  return scenario;
}

System load_system() {
  System system;
  system.trained = harness::load_or_train(core::AgentProfile::kHighThroughput,
                                          trf1_scenario(42), system.training);
  return system;
}

EpisodeResult run_episode(const System& system,
                          const netsim::ScenarioConfig& scenario,
                          const harness::ExperimentOptions& options,
                          Tracer* tracer) {
  EXPLORA_EXPECTS(options.deploy_explora && !options.faults.has_value() &&
                  !options.reliable.has_value() &&
                  !options.drop_ue_at_decision.has_value());
  telemetry::ScopedRegistry registry;
  Loop loop(system, scenario, options, tracer);
  loop.run();
  if (tracer != nullptr) loop.replay_netsim(scenario);
  EpisodeResult result = loop.take_result();
  if (tracer != nullptr) result.layers = tracer->totals();
  result.shap_model_evals =
      registry.registry().counter("xai.shap.model_evals").value();
  result.shap_explanations =
      registry.registry().counter("xai.shap.explanations").value();
  return result;
}

namespace {

/// What two runs of the same options must agree on.
struct StreamSummary {
  const std::vector<harness::DecisionRecord>* decisions;
  const std::optional<harness::ServingTelemetry>* serving;
  std::size_t explanations;
  std::size_t graph_nodes;
  std::size_t transitions;
  std::uint64_t controls_replaced;
};

StreamSummary summarize(const EpisodeResult& e) {
  return {&e.decisions,    &e.serving,           e.explanations,
          e.graph_nodes,   e.transitions.size(), e.controls_replaced};
}

std::string compare(const StreamSummary& a, const StreamSummary& b) {
  if (a.decisions->size() != b.decisions->size()) {
    return "decision count " + std::to_string(a.decisions->size()) + " != " +
           std::to_string(b.decisions->size());
  }
  for (std::size_t i = 0; i < a.decisions->size(); ++i) {
    const harness::DecisionRecord& x = (*a.decisions)[i];
    const harness::DecisionRecord& y = (*b.decisions)[i];
    if (!(x.enforced == y.enforced) || !(x.proposed == y.proposed) ||
        x.replaced != y.replaced ||
        std::bit_cast<std::uint64_t>(x.reward) !=
            std::bit_cast<std::uint64_t>(y.reward)) {
      return "decision " + std::to_string(i) + " differs";
    }
  }
  if (a.serving->has_value() != b.serving->has_value()) {
    return "serving presence differs";
  }
  if (a.serving->has_value()) {
    const harness::ServingTelemetry& x = **a.serving;
    const harness::ServingTelemetry& y = **b.serving;
    if (x.stream_digest != y.stream_digest || x.delivered != y.delivered ||
        x.shed_notices != y.shed_notices ||
        x.stats.accepted != y.stats.accepted) {
      return "serving result stream differs";
    }
  }
  if (a.explanations != b.explanations || a.graph_nodes != b.graph_nodes ||
      a.transitions != b.transitions ||
      a.controls_replaced != b.controls_replaced) {
    return "EXPLORA state differs";
  }
  return {};
}

}  // namespace

std::string compare_streams(const EpisodeResult& episode,
                            const harness::ExperimentResult& reference) {
  return compare(summarize(episode),
                 StreamSummary{&reference.decisions, &reference.serving,
                               reference.explanations.size(),
                               reference.graph.node_count(),
                               reference.transitions.size(),
                               reference.controls_replaced});
}

std::string compare_episodes(const EpisodeResult& a, const EpisodeResult& b) {
  return compare(summarize(a), summarize(b));
}

}  // namespace perfbench
