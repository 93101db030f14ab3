// Shared fixtures for the wire-codec test suites (test_codec, test_wire,
// test_replay and the codec property sweeps in test_properties): one
// canonical sample per message kind plus seeded random generators, so
// every suite fuzzes the same message space and a grammar change breaks
// loudly in one place.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "oran/messages.hpp"

namespace explora::testfix {

/// Deterministic report touching every KPI vector (the fixture used by the
/// original codec tests; kept stable so committed golden bytes stay valid).
inline netsim::KpiReport sample_report() {
  netsim::KpiReport report;
  report.window_end = 12345;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    report.slices[s].tx_bitrate_mbps = {1.5 + static_cast<double>(s), 0.25};
    report.slices[s].tx_packets = {10.0 * static_cast<double>(s + 1)};
    report.slices[s].buffer_bytes = {1000.0, 2000.0, 0.0};
  }
  return report;
}

inline netsim::SlicingControl sample_control() {
  netsim::SlicingControl control;
  control.prbs = {36, 3, 11};
  control.scheduling = {netsim::SchedulerPolicy::kProportionalFair,
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kWaterfilling};
  return control;
}

/// Random per-UE KPI report: list lengths 0..3 per KPI (empty slices
/// included — they encode as absent fields), negative window_end included
/// (zigzag path).
inline netsim::KpiReport random_report(common::Rng& rng) {
  netsim::KpiReport report;
  report.window_end = rng.uniform_int(-1000, 1'000'000);
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    auto fill = [&rng](netsim::PerUeValues& v, double lo, double hi) {
      v.resize(rng.index(4));
      for (auto& value : v) value = rng.uniform(lo, hi);
    };
    fill(report.slices[s].tx_bitrate_mbps, -1.0, 10.0);
    fill(report.slices[s].tx_packets, 0.0, 500.0);
    fill(report.slices[s].buffer_bytes, 0.0, 1e6);
  }
  return report;
}

inline netsim::SlicingControl random_control(common::Rng& rng) {
  netsim::SlicingControl control;
  for (auto& prb : control.prbs) {
    prb = static_cast<std::uint32_t>(rng.uniform_int(0, 273));
  }
  for (auto& policy : control.scheduling) {
    policy = static_cast<netsim::SchedulerPolicy>(
        rng.index(netsim::kNumSchedulerPolicies));
  }
  return control;
}

inline std::string random_sender(common::Rng& rng) {
  std::string sender(rng.index(13), '\0');
  for (auto& c : sender) {
    c = static_cast<char>('a' + rng.index(26));
  }
  return sender;
}

/// Random RIC message of any of the three types (uniform over the payload
/// alternatives, random sender including the empty string).
inline oran::RicMessage random_message(common::Rng& rng) {
  switch (rng.index(oran::kNumMessageTypes)) {
    case 0:
      return oran::make_kpm_indication(random_sender(rng),
                                       random_report(rng));
    case 1:
      return oran::make_ran_control(
          random_sender(rng), random_control(rng),
          static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)),
          static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16)));
    default:
      return oran::make_ran_control_ack(
          random_sender(rng),
          static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16)));
  }
}

/// Iteration count for the codec property sweeps. CI's wire-fuzz job sets
/// EXPLORA_FUZZ_ITERS high; the default keeps a local `ctest` fast.
inline std::size_t fuzz_iters(std::size_t default_iters = 50) {
  if (const char* env = std::getenv("EXPLORA_FUZZ_ITERS");
      env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return default_iters;
}

}  // namespace explora::testfix
