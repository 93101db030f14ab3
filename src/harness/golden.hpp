// Golden-trace runner: short canonical closed-loop runs whose telemetry
// snapshots are committed under tests/golden/ and diffed structurally by
// tools/trace_diff and tests/test_golden_trace. Each case runs the full
// gNB -> E2 -> RMR -> xApp -> control pipeline inside a fresh telemetry
// registry, so the snapshot covers exactly the run's own components, and
// the determinism contract of common/telemetry makes the JSON byte-stable
// across repeat runs, EXPLORA_THREADS values and machines.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace explora::harness {

/// Names of the canonical golden-trace cases, in the order they are
/// regenerated: "baseline" (fault-free), "chaos_drop10" (10% control and
/// ACK drop with reliable ACK/retry delivery), "serving_burst"
/// (explanation serving under burst pressure) and "replay_roundtrip"
/// (record, replay and compare the attribution streams).
[[nodiscard]] const std::vector<std::string_view>& golden_trace_cases();

/// Runs the named case end to end and returns the canonical telemetry
/// snapshot JSON (the run's own registry). The backing system is trained
/// once per process, outside that registry, so the trace captures only
/// the closed-loop pipeline. Unknown names are a contract violation.
[[nodiscard]] std::string run_golden_trace(std::string_view case_name);

/// The committed golden file name for a case ("<case>.json").
[[nodiscard]] std::string golden_trace_filename(std::string_view case_name);

}  // namespace explora::harness
