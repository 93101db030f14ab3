// The trace_replay workload's timed pass: parse a recorded `.etrace`
// stream and replay the EXPLORA xApp's frames into a fresh ExploraXapp,
// with no gNB and no DRL model in the loop (harness::replay_trace's
// composition, with each frame's decode and delivery timed apart).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explora/transitions.hpp"
#include "harness/experiment.hpp"
#include "oran/data_repository.hpp"
#include "tracer.hpp"

namespace perfbench {

namespace harness = explora::harness;

struct ReplayPass {
  std::int64_t wall_ns = 0;  ///< parse + replay
  std::size_t frames_parsed = 0;
  std::size_t frames_replayed = 0;
  std::size_t controls = 0;
  std::vector<std::int64_t> decision_ns;      ///< between forwarded controls
  std::vector<std::int64_t> control_path_ns;  ///< last KPM -> control forwarded
  std::vector<explora::oran::ExplanationRecord> explanations;
  std::vector<explora::oran::DegradationRecord> degradations;
  std::size_t graph_nodes = 0;
  std::uint64_t graph_transitions = 0;
  std::vector<explora::core::TransitionEvent> transitions;
  bool ladder_exact = false;
  LayerTotals layers;  ///< traced passes only
};

/// One timed pass over `trace`, replaying the frames addressed to
/// `xapp_name` into an xApp configured from `options` (as the live run).
[[nodiscard]] ReplayPass replay_pass(const std::vector<std::uint8_t>& trace,
                                     const std::string& xapp_name,
                                     const harness::ExperimentOptions& options,
                                     const harness::TrainingConfig& training,
                                     explora::core::AgentProfile profile,
                                     Tracer* tracer);

}  // namespace perfbench
