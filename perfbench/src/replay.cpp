#include "replay.hpp"

#include "common/telemetry.hpp"
#include "explora/xapp.hpp"
#include "oran/rmr.hpp"
#include "oran/trace.hpp"

namespace perfbench {

namespace {

using namespace explora;

/// Absorbs the replayed xApp's forwarded controls (offline there is no E2
/// termination).
class SinkEndpoint final : public oran::RmrEndpoint {
 public:
  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return "replay_sink";
  }
  void on_message(const oran::RicMessage& /*message*/) override {}
};

}  // namespace

ReplayPass replay_pass(const std::vector<std::uint8_t>& trace,
                       const std::string& xapp_name,
                       const harness::ExperimentOptions& options,
                       const harness::TrainingConfig& training,
                       core::AgentProfile profile, Tracer* tracer) {
  telemetry::ScopedRegistry scope;
  telemetry::Registry& registry = scope.registry();
  ReplayPass pass;

  const std::int64_t start = now_ns();
  std::optional<ScopedSpan> root(std::in_place, tracer, Layer::kDecision);
  std::optional<oran::TraceReplaySource> source;
  {
    ScopedSpan span(tracer, Layer::kTraceParse);
    source.emplace(oran::TraceReplaySource::parse(trace));
  }
  pass.frames_parsed = source->frames().size();

  oran::RmrRouter router;
  SinkEndpoint sink;
  router.register_endpoint(sink);
  oran::DataRepository repository;
  core::ExploraXapp::Config config = harness::make_explora_config(
      options, profile, training.reports_per_decision);
  config.name = xapp_name;
  core::ExploraXapp xapp(config, router, &repository);
  router.register_endpoint(xapp);
  router.add_route(oran::MessageType::kRanControl, xapp_name,
                   std::string(sink.endpoint_name()));
  router.add_route(oran::MessageType::kRanControlAck, xapp_name,
                   std::string(sink.endpoint_name()));

  std::int64_t last_kpm_start = start;
  std::int64_t last_control_end = now_ns();
  for (const oran::TraceFrame& frame : source->frames()) {
    if (frame.target != xapp_name) continue;
    // The decode span covers the message's whole lifetime; the xApp's
    // handling is its child.
    ScopedSpan decode_span(tracer, Layer::kReplayDecode);
    const std::int64_t frame_start = now_ns();
    registry.set_now(frame.tick);
    const oran::RicMessage message = frame.decode();
    const bool kpm = message.type == oran::MessageType::kKpmIndication;
    {
      ScopedSpan span(tracer,
                      kpm ? Layer::kExploraKpm : Layer::kExploraControl);
      xapp.on_message(message);
    }
    ++pass.frames_replayed;
    if (kpm) {
      last_kpm_start = frame_start;
    } else if (message.type == oran::MessageType::kRanControl) {
      const std::int64_t end = now_ns();
      pass.control_path_ns.push_back(end - last_kpm_start);
      pass.decision_ns.push_back(end - last_control_end);
      last_control_end = end;
      ++pass.controls;
      if (tracer != nullptr) {
        tracer->set_decision(static_cast<std::uint32_t>(pass.controls));
      }
    }
  }
  root.reset();
  pass.wall_ns = now_ns() - start;

  pass.explanations = repository.explanations();
  pass.degradations = repository.degradations();
  pass.graph_nodes = xapp.graph().node_count();
  pass.graph_transitions = xapp.graph().total_transitions();
  pass.transitions = xapp.tracker().events();
  pass.ladder_exact =
      xapp.degradation_events() == 0 &&
      xapp.ladder().active_tier() == xai::serving::Tier::kExact;
  if (tracer != nullptr) pass.layers = tracer->totals();
  return pass;
}

}  // namespace perfbench
