// Tests for the deterministic telemetry layer (common/telemetry): metric
// primitives, canonical snapshot JSON, per-thread registry scoping, and the
// determinism contract — identical snapshots across thread counts
// (exercised through the SHAP coalition fan-out), concurrent closed-loop
// runs that each count into their own registry, plus a concurrency smoke
// that the tsan preset turns into a race check.
#include "common/telemetry.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "oran/trace.hpp"
#include "xai/shap.hpp"

namespace explora::telemetry {
namespace {

struct ViolationError : std::runtime_error {
  explicit ViolationError(const contracts::ContractViolation& v)
      : std::runtime_error(std::string(v.kind) + ": " + v.message) {}
};

[[noreturn]] void throwing_handler(const contracts::ContractViolation& v) {
  throw ViolationError(v);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(Telemetry, CounterAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  if (kCompiledIn) {
    EXPECT_EQ(counter.value(), 42u);
  } else {
    EXPECT_EQ(counter.value(), 0u);
  }
}

TEST(Telemetry, GaugeSetAndAdd) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 4);
}

TEST(Telemetry, HistogramBucketsSumMinMax) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  static constexpr std::int64_t kBounds[] = {10, 20};
  Histogram histogram{kBounds};
  EXPECT_EQ(histogram.min(), 0);  // empty histogram reports 0
  EXPECT_EQ(histogram.max(), 0);
  histogram.observe(5);
  histogram.observe(10);   // boundary: <= 10 lands in bucket 0
  histogram.observe(15);
  histogram.observe(100);  // overflow bucket
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 130);
  EXPECT_EQ(histogram.min(), 5);
  EXPECT_EQ(histogram.max(), 100);
  EXPECT_EQ(histogram.bucket_count(0), 2u);
  EXPECT_EQ(histogram.bucket_count(1), 1u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);  // bounds().size() = overflow
}

TEST(Telemetry, HistogramRejectsBadBounds) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  static constexpr std::int64_t kEmpty[] = {0};
  EXPECT_THROW(Histogram(std::span<const std::int64_t>(kEmpty, 0)),
               ViolationError);
  static constexpr std::int64_t kNonIncreasing[] = {10, 10};
  EXPECT_THROW(Histogram{kNonIncreasing}, ViolationError);
}

TEST(Telemetry, SpanStatAggregates) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  SpanStat stat;
  EXPECT_EQ(stat.min(), 0);  // empty span reports 0
  stat.record(4);
  stat.record(10);
  stat.record(1);
  EXPECT_EQ(stat.count(), 3u);
  EXPECT_EQ(stat.total(), 15);
  EXPECT_EQ(stat.min(), 1);
  EXPECT_EQ(stat.max(), 10);
}

TEST(Telemetry, ScopedSpanUsesTickClockAndTracksDepth) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  SpanStat& stat = registry.span("outer");
  registry.set_now(100);
  EXPECT_EQ(ScopedSpan::depth(), 0);
  {
    ScopedSpan outer(stat, registry);
    EXPECT_EQ(ScopedSpan::depth(), 1);
    {
      ScopedSpan inner(stat, registry);
      EXPECT_EQ(ScopedSpan::depth(), 2);
      registry.set_now(103);
    }
    registry.set_now(107);
  }
  EXPECT_EQ(ScopedSpan::depth(), 0);
  EXPECT_EQ(stat.count(), 2u);
  EXPECT_EQ(stat.total(), 3 + 7);  // inner saw 100->103, outer 100->107
  EXPECT_EQ(stat.min(), 3);
  EXPECT_EQ(stat.max(), 7);
}

// ---------------------------------------------------------------------------
// Registry and scoping
// ---------------------------------------------------------------------------

TEST(Telemetry, RegistryReturnsSameMetricForSameName) {
  Registry registry;
  Counter& a = registry.counter("subsystem.events");
  Counter& b = registry.counter("subsystem.events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Telemetry, RegistryKindMismatchIsContractViolation) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  Registry registry;
  (void)registry.counter("metric");
  EXPECT_THROW((void)registry.gauge("metric"), ViolationError);
  static constexpr std::int64_t kBoundsA[] = {1, 2};
  static constexpr std::int64_t kBoundsB[] = {1, 3};
  (void)registry.histogram("hist", kBoundsA);
  EXPECT_THROW((void)registry.histogram("hist", kBoundsB), ViolationError);
}

TEST(Telemetry, ScopedRegistryIsolatesAndRestores) {
  Registry& global = active_registry();
  {
    ScopedRegistry outer;
    EXPECT_NE(&active_registry(), &global);
    EXPECT_EQ(&outer.registry(), &active_registry());
    outer.registry().counter("outer.only").add(1);
    {
      Registry mine;
      ScopedRegistry inner(mine);
      EXPECT_EQ(&active_registry(), &mine);
    }
    EXPECT_EQ(&active_registry(), &outer.registry());
    EXPECT_EQ(outer.registry().size(), 1u);
  }
  EXPECT_EQ(&active_registry(), &global);
}

TEST(Telemetry, ScopeQualifiesNames) {
  Registry registry;
  ScopedRegistry scoped(registry);
  Scope scope("oran.rmr");
  scope.counter("delivered").add(0);
  EXPECT_EQ(registry.snapshot().metrics.count("oran.rmr.delivered"), 1u);
}

TEST(Telemetry, ScopedRegistriesArePerThread) {
  // Both scopes are open at once, one per thread; each thread resolves
  // metrics from its own registry only.
  ScopedRegistry mine;
  Registry* other_active = nullptr;
  Registry* other_owned = nullptr;
  bool other_restored = false;
  std::thread other([&] {
    EXPECT_EQ(&active_registry(), &global_registry());
    {
      ScopedRegistry theirs;
      other_owned = &theirs.registry();
      other_active = &active_registry();
      Scope("t").counter("other").add(1);
    }
    other_restored = &active_registry() == &global_registry();
  });
  Scope("t").counter("mine").add(1);
  other.join();
  EXPECT_EQ(other_active, other_owned);
  EXPECT_TRUE(other_restored);
  EXPECT_EQ(&active_registry(), &mine.registry());
  const TelemetrySnapshot snapshot = mine.registry().snapshot();
  EXPECT_EQ(snapshot.metrics.size(), 1u);
  EXPECT_EQ(snapshot.metrics.count("t.mine"), 1u);
}

// ---------------------------------------------------------------------------
// Snapshots and canonical JSON
// ---------------------------------------------------------------------------

TEST(Telemetry, SnapshotJsonIsCanonical) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  // Deliberately out of lexicographic order: the document must sort.
  registry.counter("b.count").add(3);
  registry.gauge("a.level").set(-2);
  registry.set_now(17);
  const std::string expected =
      "{\n"
      "  \"schema\": \"explora.telemetry.v1\",\n"
      "  \"now\": 17,\n"
      "  \"metrics\": {\n"
      "    \"a.level\": {\"type\": \"gauge\", \"value\": -2},\n"
      "    \"b.count\": {\"type\": \"counter\", \"value\": 3}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.snapshot_json(), expected);
}

TEST(Telemetry, SnapshotJsonIndependentOfRegistrationOrder) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  static constexpr std::int64_t kBounds[] = {1, 10};
  Registry forwards;
  forwards.counter("x.a").add(1);
  forwards.histogram("x.b", kBounds).observe(3);
  Registry backwards;
  backwards.histogram("x.b", kBounds).observe(3);
  backwards.counter("x.a").add(1);
  EXPECT_EQ(forwards.snapshot_json(), backwards.snapshot_json());
  EXPECT_EQ(forwards.snapshot(), backwards.snapshot());
}

TEST(Telemetry, EmptyRegistrySnapshotsToEmptyDocument) {
  Registry registry;
  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"metrics\": {}"), std::string::npos);
}

TEST(Telemetry, SnapshotCounterRejectsUnknownNames) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  Registry registry;
  registry.counter("a.count").add(2);
  registry.gauge("a.level").set(1);
  const TelemetrySnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter("a.count"), kCompiledIn ? 2u : 0u);
  // A misspelt name or a metric of another kind fails loudly rather than
  // reading 0.
  EXPECT_THROW((void)snapshot.counter("a.cuont"), ViolationError);
  EXPECT_THROW((void)snapshot.counter("a.level"), ViolationError);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts + concurrency smoke
// ---------------------------------------------------------------------------

// The SHAP coalition fan-out is the busiest concurrent recorder in the
// codebase: model_evals counters are bumped from pool workers. The final
// snapshot must not depend on how the pool chunked the work.
std::string shap_snapshot(std::size_t threads) {
  common::ThreadPool pool(threads);
  ScopedRegistry scoped;
  xai::ShapExplainer::Config config;
  config.pool = &pool;
  std::vector<xai::Vector> background = {
      {0.0, 0.0, 0.0, 0.0}, {1.0, 1.0, 1.0, 1.0}, {0.5, -0.5, 0.25, 2.0}};
  xai::ShapExplainer explainer(
      [](const xai::Vector& x) {
        double sum = 0.0;
        for (double v : x) sum += v;
        return xai::Vector{sum};
      },
      background, config);
  (void)explainer.explain_all_outputs({0.4, 1.2, -0.7, 0.9});
  (void)explainer.explain_all_outputs({1.0, 0.0, 1.0, 0.0});
  return scoped.registry().snapshot_json();
}

TEST(Telemetry, ShapSnapshotIdenticalAcrossThreadCounts) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const std::string serial = shap_snapshot(1);
  const std::string parallel = shap_snapshot(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("xai.shap.explanations"), std::string::npos);
}

TEST(Telemetry, ConcurrentRecordingIsExactAndRaceFree) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Registry registry;
  Counter& counter = registry.counter("smoke.events");
  static constexpr std::int64_t kBounds[] = {100, 500};
  Histogram& histogram = registry.histogram("smoke.values", kBounds);
  SpanStat& span = registry.span("smoke.spans");
  common::ThreadPool pool(4);
  constexpr std::size_t kIterations = 10000;
  pool.parallel_for(0, kIterations, /*grain=*/64,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        counter.add(1);
                        histogram.observe(static_cast<std::int64_t>(i % 997));
                        span.record(static_cast<std::int64_t>(i % 13));
                      }
                    });
  std::int64_t value_sum = 0;
  std::int64_t span_sum = 0;
  for (std::size_t i = 0; i < kIterations; ++i) {
    value_sum += static_cast<std::int64_t>(i % 997);
    span_sum += static_cast<std::int64_t>(i % 13);
  }
  EXPECT_EQ(counter.value(), kIterations);
  EXPECT_EQ(histogram.count(), kIterations);
  EXPECT_EQ(histogram.sum(), value_sum);
  EXPECT_EQ(histogram.min(), 0);
  EXPECT_EQ(histogram.max(), 996);
  EXPECT_EQ(span.count(), kIterations);
  EXPECT_EQ(span.total(), span_sum);
  EXPECT_EQ(span.min(), 0);
  EXPECT_EQ(span.max(), 12);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    bucket_total += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, kIterations);
}

// ---------------------------------------------------------------------------
// Concurrent closed-loop runs
// ---------------------------------------------------------------------------

harness::TrainingConfig run_training() {
  harness::TrainingConfig config;
  config.collection_steps = 30;
  config.autoencoder.epochs = 5;
  config.ppo_iterations = 2;
  config.steps_per_iteration = 32;
  config.seed = 99;
  return config;
}

netsim::ScenarioConfig run_scenario(std::uint64_t seed) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  scenario.seed = seed;
  return scenario;
}

/// What one run leaves behind: its registry snapshot, its serving digest
/// and its recorded trace.
struct RunRecord {
  TelemetrySnapshot telemetry;
  std::uint64_t serving_digest = 0;
  std::vector<std::uint8_t> trace;
};

RunRecord record_run(const harness::TrainedSystem& system,
                     std::uint64_t seed) {
  harness::ExperimentOptions options;
  options.decisions = 8;
  options.reliable = oran::ReliableControlSender::Config{};
  options.serving = harness::ServingOptions{};
  oran::TraceRecorder recorder("explora_xapp");
  options.recorder = &recorder;
  harness::ExperimentResult result = harness::run_experiment(
      system, run_scenario(seed), options, run_training());
  RunRecord record;
  record.telemetry = std::move(result.telemetry);
  record.serving_digest = result.serving->stream_digest;
  record.trace = std::move(recorder).take();
  return record;
}

TEST(Telemetry, ConcurrentRunsKeepTheirOwnRegistries) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  // Trained on this thread before any run, outside every run's registry.
  const harness::TrainedSystem system = harness::train_system(
      core::AgentProfile::kHighThroughput, run_scenario(31), run_training());
  constexpr std::array<std::uint64_t, 3> kSeeds{31, 32, 33};
  std::vector<RunRecord> serial;
  for (const std::uint64_t seed : kSeeds) {
    serial.push_back(record_run(system, seed));
  }
  std::vector<RunRecord> concurrent(kSeeds.size());
  common::ThreadPool pool(kSeeds.size());
  pool.parallel_for(0, kSeeds.size(), 1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        concurrent[i] = record_run(system, kSeeds[i]);
                      }
                    });
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "seed " << kSeeds[i]);
    EXPECT_EQ(concurrent[i].telemetry, serial[i].telemetry);
    EXPECT_EQ(concurrent[i].serving_digest, serial[i].serving_digest);
    EXPECT_EQ(concurrent[i].trace, serial[i].trace);
  }
  // The seeds drive different runs, so a mixed-up registry would show.
  EXPECT_NE(serial[0].telemetry, serial[1].telemetry);
  EXPECT_NE(serial[0].trace, serial[1].trace);
}

TEST(InterleaveTelemetry, RelaxedFoldsAreExactInEverySchedule) {
  if (!kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  static constexpr std::int64_t kBounds[] = {10, 100};
  // Two callers, each recording counter -> histogram -> span with a
  // distinct value, so min/max/sum/bucket placement all notice a lost or
  // doubled fold. Every ordering of the six steps (20 of them) is run in
  // turn, then the two callers run once more on real threads.
  constexpr std::array<std::int64_t, 2> kValues{5, 500};
  auto check = [](const Counter& counter, const Histogram& histogram,
                  const SpanStat& span) {
    EXPECT_EQ(counter.value(), 2u);
    EXPECT_EQ(histogram.count(), 2u);
    EXPECT_EQ(histogram.sum(), 505);
    EXPECT_EQ(histogram.min(), 5);
    EXPECT_EQ(histogram.max(), 500);
    EXPECT_EQ(histogram.bucket_count(0), 1u);
    EXPECT_EQ(histogram.bucket_count(1), 0u);
    EXPECT_EQ(histogram.bucket_count(2), 1u);
    EXPECT_EQ(span.count(), 2u);
    EXPECT_EQ(span.total(), 1010);
    EXPECT_EQ(span.min(), 10);
    EXPECT_EQ(span.max(), 1000);
  };

  int schedules = 0;
  for (unsigned mask = 0; mask < 64; ++mask) {
    if (__builtin_popcount(mask) != 3) continue;  // three steps per caller
    Counter counter;
    Histogram histogram(kBounds);
    SpanStat span;
    std::array<int, 2> next_step{0, 0};
    for (int slot = 0; slot < 6; ++slot) {
      const std::size_t caller = (mask >> slot) & 1u;
      const std::int64_t value = kValues[caller];
      switch (next_step[caller]++) {
        case 0: counter.add(1); break;
        case 1: histogram.observe(value); break;
        default: span.record(value * 2); break;
      }
    }
    check(counter, histogram, span);
    ++schedules;
  }
  EXPECT_EQ(schedules, 20);

  Counter counter;
  Histogram histogram(kBounds);
  SpanStat span;
  common::ThreadPool pool(2);
  pool.parallel_for(0, kValues.size(), /*grain=*/1,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        counter.add(1);
                        histogram.observe(kValues[i]);
                        span.record(kValues[i] * 2);
                      }
                    });
  check(counter, histogram, span);
}

}  // namespace
}  // namespace explora::telemetry
