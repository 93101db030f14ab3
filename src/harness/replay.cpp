#include "harness/replay.hpp"

#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "common/fnv.hpp"
#include "common/telemetry.hpp"
#include "explora/transitions.hpp"
#include "ml/features.hpp"
#include "oran/wire.hpp"

// ---------------------------------------------------------------------------
// Wire field lists for the attribution dump. These live here (not in
// oran/wire) because they describe explora-layer types, and oran sits
// below explora in the module DAG. Declared in the wire namespace so the
// visitor machinery finds them through its Encoder argument.
// ---------------------------------------------------------------------------

namespace explora::oran::wire {

/// One attribute's reservoir state: total values seen plus the retained
/// samples in reservoir order (order is part of the determinism contract).
struct AttributeDump {
  std::uint64_t seen = 0;
  std::vector<double> samples;
};

struct NodeDump {
  netsim::SlicingControl action;
  std::uint64_t visits = 0;
  std::uint64_t samples = 0;
  std::vector<AttributeDump> attributes;
  std::vector<AttributeDump> user_attributes;
};

struct EdgeDump {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t count = 0;
};

struct GraphDump {
  std::uint64_t total_transitions = 0;
  std::vector<NodeDump> nodes;
  std::vector<EdgeDump> edges;
};

/// The whole attribution stream of one run, as a single wire message.
struct AttributionDump {
  std::vector<ExplanationRecord> explanations;
  std::vector<DegradationRecord> degradations;
  GraphDump graph;
  std::vector<core::TransitionEvent> transitions;
};

template <typename V>
void wire_fields(V& v, AttributeDump& a) {
  v.u64(1, "seen", a.seen);
  v.f64_list(2, "samples", a.samples);
}

template <typename V>
void wire_fields(V& v, NodeDump& n) {
  v.msg(1, "action", n.action);
  v.u64(2, "visits", n.visits);
  v.u64(3, "samples", n.samples);
  v.msg_list(4, "attributes", n.attributes);
  v.msg_list(5, "user_attributes", n.user_attributes);
}

template <typename V>
void wire_fields(V& v, EdgeDump& e) {
  v.u64(1, "from", e.from);
  v.u64(2, "to", e.to);
  v.u64(3, "count", e.count);
}

template <typename V>
void wire_fields(V& v, GraphDump& g) {
  v.u64(1, "total_transitions", g.total_transitions);
  v.msg_list(2, "nodes", g.nodes);
  v.msg_list(3, "edges", g.edges);
}

template <typename V>
void wire_fields(V& v, core::TransitionEvent& e) {
  v.msg(1, "from", e.from);
  v.msg(2, "to", e.to);
  v.enumeration(3, "cls", e.cls, core::kNumTransitionClasses - 1);
  v.f64_list(4, "delta", e.delta);
  v.f64_list(5, "js_divergence", e.js_divergence);
}

template <typename V>
void wire_fields(V& v, AttributionDump& d) {
  v.msg_list(1, "explanations", d.explanations);
  v.msg_list(2, "degradations", d.degradations);
  v.msg(3, "graph", d.graph);
  v.msg_list(4, "transitions", d.transitions);
}

}  // namespace explora::oran::wire

namespace explora::harness {

namespace {

[[nodiscard]] std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                                  std::string_view text) {
  std::uint64_t digest = common::kFnvBasis;
  for (const std::uint8_t b : bytes) common::fnv1a_byte(digest, b);
  common::fnv1a_text(digest, text);
  return digest;
}

[[nodiscard]] oran::wire::AttributeDump dump_attribute(
    const common::SampleStore& store) {
  oran::wire::AttributeDump dump;
  dump.seen = store.seen();
  const auto samples = store.samples();
  dump.samples.assign(samples.begin(), samples.end());
  return dump;
}

[[nodiscard]] oran::wire::GraphDump dump_graph(
    const core::AttributedGraph& graph) {
  oran::wire::GraphDump dump;
  dump.total_transitions = graph.total_transitions();
  dump.nodes.reserve(graph.node_count());
  for (const core::ActionNode& node : graph.nodes()) {
    oran::wire::NodeDump nd;
    nd.action = node.action;
    nd.visits = node.visits;
    nd.samples = node.samples;
    nd.attributes.reserve(node.attributes.size());
    for (const common::SampleStore& store : node.attributes) {
      nd.attributes.push_back(dump_attribute(store));
    }
    nd.user_attributes.reserve(node.user_attributes.size());
    for (const common::SampleStore& store : node.user_attributes) {
      nd.user_attributes.push_back(dump_attribute(store));
    }
    dump.nodes.push_back(std::move(nd));
  }
  for (const auto& [from, to, count] : graph.edges()) {
    dump.edges.push_back(oran::wire::EdgeDump{from, to, count});
  }
  return dump;
}

/// Canonical filtered telemetry: only the xApp's own metrics, clock
/// normalized (live and replay freeze their clocks at different final
/// instants; the metric values are the behaviour under test).
[[nodiscard]] std::string filtered_xapp_telemetry(
    const telemetry::TelemetrySnapshot& snapshot) {
  telemetry::TelemetrySnapshot filtered;
  filtered.now = 0;
  for (const auto& [name, metric] : snapshot.metrics) {
    if (name.starts_with("explora.xapp.")) filtered.metrics[name] = metric;
  }
  return filtered.to_json();
}

[[nodiscard]] AttributionStream encode_attribution(
    const std::vector<oran::ExplanationRecord>& explanations,
    const std::vector<oran::DegradationRecord>& degradations,
    const core::AttributedGraph& graph,
    const std::vector<core::TransitionEvent>& transitions,
    const telemetry::TelemetrySnapshot& telemetry) {
  oran::wire::AttributionDump dump;
  dump.explanations = explanations;
  dump.degradations = degradations;
  dump.graph = dump_graph(graph);
  dump.transitions = transitions;

  AttributionStream stream;
  stream.bytes = oran::wire::encode_frame(dump);
  stream.telemetry_json = filtered_xapp_telemetry(telemetry);
  stream.digest = fnv1a(stream.bytes, stream.telemetry_json);
  return stream;
}

/// Absorbs the replayed xApp's outbound traffic (forwarded controls and
/// upstream ACKs) — offline there is no E2 termination to receive them.
class SinkEndpoint final : public oran::RmrEndpoint {
 public:
  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return "replay_sink";
  }
  void on_message(const oran::RicMessage& /*message*/) override {
    ++absorbed_;
  }
  [[nodiscard]] std::uint64_t absorbed() const noexcept { return absorbed_; }

 private:
  std::uint64_t absorbed_ = 0;
};

}  // namespace

RecordedRun record_experiment(const TrainedSystem& system,
                              const netsim::ScenarioConfig& scenario,
                              const ExperimentOptions& options,
                              const TrainingConfig& training) {
  EXPLORA_EXPECTS(options.deploy_explora);
  EXPLORA_EXPECTS(options.recorder == nullptr);

  RecordedRun run;
  run.xapp_name =
      make_explora_config(options, system.profile,
                          training.reports_per_decision)
          .name;
  oran::TraceRecorder recorder(run.xapp_name);

  ExperimentOptions recording = options;
  recording.recorder = &recorder;
  run.result = run_experiment(system, scenario, recording, training);
  run.trace = std::move(recorder).take();
  run.attribution =
      encode_attribution(run.result.explanations, run.result.degradations,
                         run.result.graph, run.result.transitions,
                         run.result.telemetry);
  return run;
}

ReplayOutcome replay_trace(const oran::TraceReplaySource& source,
                           const std::string& xapp_name,
                           const ExperimentOptions& options,
                           core::AgentProfile profile,
                           const TrainingConfig& training) {
  telemetry::ScopedRegistry tscope;
  telemetry::Registry& registry = tscope.registry();

  oran::RmrRouter router;
  SinkEndpoint sink;
  router.register_endpoint(sink);

  oran::DataRepository repository;
  core::ExploraXapp::Config config =
      make_explora_config(options, profile, training.reports_per_decision);
  config.name = xapp_name;
  core::ExploraXapp xapp(config, router, &repository);
  router.register_endpoint(xapp);
  router.add_route(oran::MessageType::kRanControl, xapp_name,
                   std::string(sink.endpoint_name()));
  router.add_route(oran::MessageType::kRanControlAck, xapp_name,
                   std::string(sink.endpoint_name()));

  ReplayOutcome outcome;
  outcome.frames_delivered = source.replay_into(
      xapp, xapp_name,
      [&registry](std::int64_t tick) { registry.set_now(tick); });
  outcome.explanations = repository.explanations();
  outcome.degradations = repository.degradations();
  outcome.attribution = encode_attribution(
      outcome.explanations, outcome.degradations, xapp.graph(),
      xapp.tracker().events(), registry.snapshot());
  return outcome;
}

RoundTripReport replay_roundtrip(const TrainedSystem& system,
                                 const netsim::ScenarioConfig& scenario,
                                 const ExperimentOptions& options,
                                 const TrainingConfig& training) {
  RoundTripReport report;
  report.live = record_experiment(system, scenario, options, training);
  const oran::TraceReplaySource source =
      oran::TraceReplaySource::parse(report.live.trace);
  report.replayed = replay_trace(source, report.live.xapp_name, options,
                                 system.profile, training);
  report.bytes_identical =
      report.live.attribution.bytes == report.replayed.attribution.bytes;
  report.telemetry_identical = report.live.attribution.telemetry_json ==
                               report.replayed.attribution.telemetry_json;
  return report;
}

ServeStats serve_trace(const oran::TraceReplaySource& source,
                       const std::string& drl_xapp_name,
                       const TrainedSystem& system,
                       const ServingOptions& serving,
                       std::size_t reports_per_decision) {
  EXPLORA_EXPECTS(system.autoencoder != nullptr && system.agent != nullptr);
  EXPLORA_EXPECTS(reports_per_decision > 0);

  telemetry::ScopedRegistry tscope;
  ServeStats stats;
  stats.stream_digest = common::kFnvBasis;

  ml::InputWindow window;
  std::vector<ml::Vector> background;
  std::optional<ExplainService> service;
  std::int64_t service_tick = 0;
  std::size_t since_decision = 0;

  auto fold_results = [&stats](std::vector<ExplanationResult> results) {
    for (const ExplanationResult& result : results) {
      if (result.shed_reason != xai::serving::ShedReason::kNone) {
        ++stats.shed;
      } else {
        ++stats.delivered;
      }
      common::fnv1a_word(stats.stream_digest, result.id);
      common::fnv1a_byte(stats.stream_digest,
                         static_cast<std::uint8_t>(result.tier));
      common::fnv1a_byte(stats.stream_digest,
                         static_cast<std::uint8_t>(result.shed_reason));
    }
  };

  for (const oran::TraceFrame& frame : source.frames()) {
    if (frame.target != drl_xapp_name) continue;
    const oran::RicMessage message = frame.decode();
    if (message.type != oran::MessageType::kKpmIndication) continue;
    ++stats.indications;
    window.push(message.kpm().report);
    if (!window.ready()) continue;
    if (++since_decision < reports_per_decision) continue;
    since_decision = 0;
    ++stats.decisions;

    const ml::Vector latent =
        system.autoencoder->encode(window.flatten(system.normalizer));
    if (!service.has_value()) {
      background.push_back(latent);
      if (background.size() >= serving.background_rows) {
        service.emplace(*system.agent, background, nullptr,
                        make_service_config(serving));
        service_tick = frame.tick;
      }
      continue;
    }

    service->run_until(service_tick, frame.tick);
    service_tick = frame.tick;
    fold_results(service->drain());

    const ml::PolicyDecision decision = system.agent->act_greedy(latent);
    const auto head =
        static_cast<std::uint32_t>(stats.decisions % ml::kNumHeads);
    const std::int64_t deadline = serving.deadline_ticks > 0
                                      ? frame.tick + serving.deadline_ticks
                                      : 0;
    for (std::size_t i = 0; i < serving.requests_per_decision; ++i) {
      (void)service->submit(latent, head, decision.action, frame.tick,
                            deadline);
      ++stats.submitted;
    }
  }

  // Drain the serving tail on the simulated clock (bounded, like the live
  // harness: every pass retires work or sheds on deadline).
  if (service.has_value()) {
    const std::int64_t chunk =
        service->config().costs.cost(xai::serving::Tier::kExact) +
        service->config().default_deadline;
    for (int i = 0; i < 64 && (service->queue().depth() > 0 ||
                               service->busy_workers() > 0);
         ++i) {
      service->run_until(service_tick, service_tick + chunk);
      service_tick += chunk;
      fold_results(service->drain());
    }
    service->on_tick(service_tick + 1);
    fold_results(service->drain());
  }
  return stats;
}

}  // namespace explora::harness
