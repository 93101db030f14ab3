// Golden-trace regression tests: the canonical closed-loop runs
// (harness/golden) must produce telemetry snapshots that are byte-stable
// across repeat runs and byte-identical to the JSON documents committed
// under tests/golden/. A legitimate behaviour change regenerates them via
// `tools/trace_diff --update` (see README).
#include "harness/golden.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/telemetry.hpp"

#ifndef EXPLORA_GOLDEN_DIR
#define EXPLORA_GOLDEN_DIR "tests/golden"
#endif

namespace explora::harness {
namespace {

std::string read_golden(std::string_view case_name) {
  const std::filesystem::path path =
      std::filesystem::path(EXPLORA_GOLDEN_DIR) /
      golden_trace_filename(case_name);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden " << path
                            << " (regenerate: tools/trace_diff --update)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenTrace, CasesAreRegistered) {
  const auto& cases = golden_trace_cases();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0], "baseline");
  EXPECT_EQ(cases[1], "chaos_drop10");
  EXPECT_EQ(cases[2], "serving_burst");
  EXPECT_EQ(cases[3], "replay_roundtrip");
}

TEST(GoldenTrace, RepeatRunsAreByteIdentical) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  for (const std::string_view case_name : golden_trace_cases()) {
    const std::string first = run_golden_trace(case_name);
    const std::string second = run_golden_trace(case_name);
    EXPECT_EQ(first, second) << "case " << case_name
                             << " is not run-to-run deterministic";
  }
}

TEST(GoldenTrace, BaselineMatchesCommittedGolden) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  EXPECT_EQ(run_golden_trace("baseline"), read_golden("baseline"));
}

TEST(GoldenTrace, ChaosDrop10MatchesCommittedGolden) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  EXPECT_EQ(run_golden_trace("chaos_drop10"), read_golden("chaos_drop10"));
}

TEST(GoldenTrace, ChaosCaseRecordsImpairmentActivity) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const std::string golden = read_golden("chaos_drop10");
  // The 10% drop faults must be visible in the trace: the impairment layer
  // recorded drops and the reliable sender retransmitted around them.
  EXPECT_NE(golden.find("\"oran.impairments.dropped.ran_control\""),
            std::string::npos);
  EXPECT_NE(golden.find("\"oran.reliable.retransmissions\""),
            std::string::npos);
  // The fault-free baseline must not contain dropped messages.
  const std::string baseline = read_golden("baseline");
  EXPECT_EQ(baseline.find("\"oran.impairments.dropped."), std::string::npos);
}

}  // namespace
}  // namespace explora::harness
