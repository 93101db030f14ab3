// Registry reads for tests: a test builds its system under test inside a
// telemetry::ScopedRegistry and checks the counters it recorded there.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "common/telemetry.hpp"

namespace explora::testfix {

/// Expects `registry`'s counter `name` to read `expected`. Counters stay 0
/// when telemetry is compiled out, so the check is skipped in that build.
inline void expect_counter(const telemetry::Registry& registry,
                           std::string_view name, std::uint64_t expected) {
  if (!telemetry::kCompiledIn) return;
  EXPECT_EQ(registry.snapshot().counter(name), expected) << name;
}

}  // namespace explora::testfix
