// Record/replay harness (DESIGN.md §13.4): runs an experiment with a
// TraceRecorder tapped on the router, then feeds the recorded delivery
// stream back into a *fresh* EXPLORA xApp with no simulator, DRL agent or
// impairment model in the loop. Because the xApp is a deterministic
// function of its delivered message stream, the replayed run must
// reproduce the live run's attribution stream — explanations,
// degradation records, attributed graph (including reservoir sample
// contents), transition events — and its explora.xapp telemetry
// byte-for-byte. replay_roundtrip() asserts exactly that and is wired
// into the golden-trace differ as a structural case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explora/explain_service.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "oran/trace.hpp"

namespace explora::harness {

/// One canonical byte stream of everything EXPLORA produced in a run:
/// the wire-encoded attribution dump (explanations, degradations, graph,
/// transitions) plus the canonical filtered explora.xapp telemetry JSON
/// (clock normalized to 0 — live and replay stop their clocks at
/// different instants, which is presentation, not behaviour).
struct AttributionStream {
  std::vector<std::uint8_t> bytes;  ///< one wire frame (AttributionDump)
  std::string telemetry_json;       ///< explora.xapp.* metrics, now = 0
  std::uint64_t digest = 0;         ///< FNV-1a over bytes + telemetry_json

  friend bool operator==(const AttributionStream&,
                         const AttributionStream&) = default;
};

/// Products of a recorded live run.
struct RecordedRun {
  ExperimentResult result;
  std::vector<std::uint8_t> trace;  ///< serialized .etrace stream
  std::string xapp_name;            ///< replay target endpoint
  AttributionStream attribution;
};

/// Runs run_experiment with a delivery tap installed, harvesting the
/// serialized trace and the live attribution stream (whose telemetry part
/// comes from the run's own snapshot). Requires options.deploy_explora.
[[nodiscard]] RecordedRun record_experiment(
    const TrainedSystem& system, const netsim::ScenarioConfig& scenario,
    const ExperimentOptions& options, const TrainingConfig& training = {});

/// Products of replaying a trace into a fresh EXPLORA xApp.
struct ReplayOutcome {
  std::size_t frames_delivered = 0;
  std::vector<oran::ExplanationRecord> explanations;
  std::vector<oran::DegradationRecord> degradations;
  AttributionStream attribution;
};

/// Replays every frame recorded for the named xApp into a fresh
/// ExploraXapp built from the same options the live run used (see
/// make_explora_config). The xApp's outbound traffic (forwarded controls,
/// ACKs) drains into a sink endpoint; the replay clock follows the
/// recorded frame ticks.
[[nodiscard]] ReplayOutcome replay_trace(
    const oran::TraceReplaySource& source, const std::string& xapp_name,
    const ExperimentOptions& options, core::AgentProfile profile,
    const TrainingConfig& training = {});

/// Record-then-replay verdict (the golden replay_roundtrip case and the
/// `tools/replay --verify` CLI both publish this).
struct RoundTripReport {
  RecordedRun live;
  ReplayOutcome replayed;
  bool bytes_identical = false;      ///< attribution wire bytes match
  bool telemetry_identical = false;  ///< filtered telemetry JSON matches
  [[nodiscard]] bool ok() const noexcept {
    return bytes_identical && telemetry_identical;
  }
};

/// Runs a live recorded experiment, replays its trace offline and
/// compares the two attribution streams byte-for-byte.
[[nodiscard]] RoundTripReport replay_roundtrip(
    const TrainedSystem& system, const netsim::ScenarioConfig& scenario,
    const ExperimentOptions& options, const TrainingConfig& training = {});

/// Explanation serving over a recorded stream: rebuilds the DRL xApp's
/// latent inputs from the replayed KPM indications (normalizer +
/// autoencoder, exactly the live feature path) and submits one
/// explanation query per decision window against an ExplainService
/// clocked by the recorded frame ticks. This is the paper's offline
/// consumption mode: explain traffic that already happened, with no RAN
/// attached.
struct ServeStats {
  std::size_t indications = 0;
  std::size_t decisions = 0;
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t stream_digest = 0;  ///< FNV-1a over the result stream
};

[[nodiscard]] ServeStats serve_trace(const oran::TraceReplaySource& source,
                                     const std::string& drl_xapp_name,
                                     const TrainedSystem& system,
                                     const ServingOptions& serving,
                                     std::size_t reports_per_decision);

}  // namespace explora::harness
