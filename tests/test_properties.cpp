// Cross-module property sweeps and failure-injection tests: invariants the
// system must hold under randomized inputs, seeds and degenerate
// configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "explora/explain_service.hpp"
#include "explora/graph.hpp"
#include "explora/reward.hpp"
#include "harness/experiment.hpp"
#include "harness/training.hpp"
#include "ml/ppo.hpp"
#include "netsim/scenario.hpp"
#include "oran/wire.hpp"
#include "support/wire_fixtures.hpp"

namespace explora {
namespace {

// ---------------------------------------------------------------------------
// Attributed-graph invariants under random action/report streams.
// ---------------------------------------------------------------------------

netsim::SlicingControl random_action(common::Rng& rng) {
  const auto& catalog = netsim::prb_catalog();
  netsim::SlicingControl control;
  control.prbs = catalog[rng.index(catalog.size())];
  for (auto& policy : control.scheduling) {
    policy = static_cast<netsim::SchedulerPolicy>(rng.index(3));
  }
  return control;
}

netsim::KpiReport random_report(common::Rng& rng) {
  netsim::KpiReport report;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    report.slices[s].tx_bitrate_mbps = {rng.uniform(0.0, 10.0)};
    report.slices[s].tx_packets = {rng.uniform(0.0, 500.0)};
    report.slices[s].buffer_bytes = {rng.uniform(0.0, 1e6)};
  }
  return report;
}

class GraphFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzzSweep, InvariantsHoldUnderRandomStreams) {
  common::Rng rng(GetParam());
  core::AttributedGraph graph;
  std::size_t begin_calls = 0;
  std::size_t record_calls = 0;
  bool has_current = false;  // record_consequence requires an active action
  for (int step = 0; step < 500; ++step) {
    if (!has_current || rng.bernoulli(0.3)) {
      graph.begin_action(random_action(rng));
      ++begin_calls;
      has_current = true;
    } else if (rng.bernoulli(0.05)) {
      graph.break_temporal_link();
      has_current = false;
    } else {
      graph.record_consequence(random_report(rng));
      ++record_calls;
    }
  }
  // Sum of node visits equals begin_action calls.
  std::uint64_t visits = 0;
  std::uint64_t samples = 0;
  for (const auto& node : graph.nodes()) {
    visits += node.visits;
    samples += node.samples;
  }
  EXPECT_EQ(visits, begin_calls);
  EXPECT_EQ(samples, record_calls);
  // Sum of edge counts equals total transitions.
  std::uint64_t edge_total = 0;
  for (const auto& [from, to, count] : graph.edges()) {
    EXPECT_LT(from, graph.node_count());
    EXPECT_LT(to, graph.node_count());
    edge_total += count;
  }
  EXPECT_EQ(edge_total, graph.total_transitions());
  // Transitions never exceed begin calls minus one (links can be broken).
  EXPECT_LE(graph.total_transitions(), begin_calls - 1);
  // Every neighbour list refers to existing nodes and matches the edges.
  for (const auto& node : graph.nodes()) {
    for (std::size_t neighbor : graph.neighbors(node.action)) {
      EXPECT_GE(graph.edge_visits(node.action,
                                  graph.node(neighbor).action),
                1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzzSweep,
                         ::testing::Values(1u, 7u, 42u, 1337u, 9001u));

// ---------------------------------------------------------------------------
// Reward model: Eq. (1) is linear in each slice's target KPI.
// ---------------------------------------------------------------------------

class RewardLinearitySweep
    : public ::testing::TestWithParam<core::AgentProfile> {};

TEST_P(RewardLinearitySweep, RewardIsAffineInTargetKpis) {
  const core::RewardModel model(core::weights_for(GetParam()));
  common::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_report(rng);
    const auto b = random_report(rng);
    // r(a) + r(b) == r(a + b) for slice-aggregated reports (linearity).
    netsim::KpiReport sum;
    for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
      sum.slices[s].tx_bitrate_mbps = {a.slices[s].tx_bitrate_mbps[0] +
                                       b.slices[s].tx_bitrate_mbps[0]};
      sum.slices[s].tx_packets = {a.slices[s].tx_packets[0] +
                                  b.slices[s].tx_packets[0]};
      sum.slices[s].buffer_bytes = {a.slices[s].buffer_bytes[0] +
                                    b.slices[s].buffer_bytes[0]};
    }
    EXPECT_NEAR(model.from_report(a) + model.from_report(b),
                model.from_report(sum), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, RewardLinearitySweep,
                         ::testing::Values(
                             core::AgentProfile::kHighThroughput,
                             core::AgentProfile::kLowLatency));

// ---------------------------------------------------------------------------
// PPO across seeds: sampled actions always valid, logprobs consistent.
// ---------------------------------------------------------------------------

class PpoSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PpoSeedSweep, SampledActionsValidForAnyInit) {
  ml::PpoAgent::Config config;
  config.state_dim = ml::kLatentDim;
  config.hidden_dim = 32;
  ml::PpoAgent agent(config, GetParam());
  common::Rng rng(GetParam() ^ 0xf00d);
  for (int i = 0; i < 100; ++i) {
    ml::Vector state(ml::kLatentDim);
    for (auto& v : state) v = rng.uniform(-1.0, 1.0);
    const auto decision = agent.act(state, rng);
    EXPECT_LT(decision.action.prb_choice, netsim::prb_catalog().size());
    EXPECT_LE(decision.log_prob, 1e-12);
    EXPECT_TRUE(std::isfinite(agent.value(state)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PpoSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------------
// Simulator failure injection / degenerate configurations.
// ---------------------------------------------------------------------------

TEST(FailureInjection, SliceWithZeroPrbsStarvesButDoesNotCrash) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  netsim::SlicingControl control;
  control.prbs = {50, 0, 0};
  control.scheduling = {netsim::SchedulerPolicy::kProportionalFair,
                        netsim::SchedulerPolicy::kProportionalFair,
                        netsim::SchedulerPolicy::kProportionalFair};
  gnb->apply_control(control);
  double urllc_bytes_served = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto report = gnb->run_report_window();
    urllc_bytes_served +=
        report.value(netsim::Kpi::kTxBitrate, netsim::Slice::kUrllc);
  }
  EXPECT_DOUBLE_EQ(urllc_bytes_served, 0.0);  // fully starved
  // The starved slice's buffer saturates at the UE cap instead of growing
  // without bound.
  const auto report = gnb->run_report_window();
  EXPECT_LE(report.value(netsim::Kpi::kBufferSize, netsim::Slice::kUrllc),
            2'000'000.0 + 1.0);
}

TEST(FailureInjection, EmptySliceProducesEmptyKpiVectors) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 0, 1};  // no mMTC users
  auto gnb = netsim::make_gnb(scenario);
  const auto report = gnb->run_report_window();
  EXPECT_TRUE(report.slices[1].tx_bitrate_mbps.empty());
  EXPECT_DOUBLE_EQ(report.value(netsim::Kpi::kTxPackets,
                                netsim::Slice::kMmtc),
                   0.0);
}

TEST(FailureInjection, AllUesDetachedFromSliceMidRun) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 2, 1};
  auto gnb = netsim::make_gnb(scenario);
  for (int i = 0; i < 10; ++i) (void)gnb->run_report_window();
  EXPECT_TRUE(gnb->detach_one_ue(netsim::Slice::kMmtc));
  EXPECT_TRUE(gnb->detach_one_ue(netsim::Slice::kMmtc));
  // Scheduling an empty slice must be a no-op.
  for (int i = 0; i < 10; ++i) (void)gnb->run_report_window();
  EXPECT_EQ(gnb->slice_ues(netsim::Slice::kMmtc).size(), 0u);
}

TEST(Mobility, MovingUeChangesItsChannel) {
  netsim::ChannelConfig config;
  config.fading_enabled = false;  // isolate the mobility effect
  netsim::UeChannel channel(800.0, config, common::Rng(3));
  netsim::MobilityConfig mobility;
  mobility.speed_mps = 30.0;
  mobility.min_distance_m = 200.0;
  mobility.max_distance_m = 2000.0;
  channel.set_mobility(mobility);
  const double initial = channel.distance_m();
  for (int tti = 0; tti < 10'000; ++tti) channel.advance();
  EXPECT_NE(channel.distance_m(), initial);
  EXPECT_GE(channel.distance_m(), mobility.min_distance_m);
  EXPECT_LE(channel.distance_m(), mobility.max_distance_m);
}

TEST(Mobility, StaysWithinBandForLongWalks) {
  netsim::ChannelConfig config;
  netsim::UeChannel channel(500.0, config, common::Rng(11));
  netsim::MobilityConfig mobility;
  mobility.speed_mps = 100.0;  // aggressive drift
  mobility.min_distance_m = 400.0;
  mobility.max_distance_m = 700.0;
  channel.set_mobility(mobility);
  for (int tti = 0; tti < 200'000; ++tti) {
    channel.advance();
    ASSERT_GE(channel.distance_m(), mobility.min_distance_m);
    ASSERT_LE(channel.distance_m(), mobility.max_distance_m);
  }
}

TEST(Mobility, ScenarioPlumbsSpeedThrough) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 0, 0};
  scenario.mobility_speed_mps = 50.0;
  auto gnb = netsim::make_gnb(scenario);
  const netsim::Ue* ue = gnb->slice_ues(netsim::Slice::kEmbb)[0];
  const double initial = ue->channel().distance_m();
  for (int i = 0; i < 400; ++i) (void)gnb->run_report_window();  // 10 s
  EXPECT_NE(ue->channel().distance_m(), initial);
}

// ---------------------------------------------------------------------------
// Telemetry invariants under randomized recording streams.
// ---------------------------------------------------------------------------

class TelemetryFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TelemetryFuzzSweep, HistogramBucketsAlwaysSumToCount) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  common::Rng rng(GetParam());
  static constexpr std::int64_t kBounds[] = {-50, 0, 10, 100, 1000};
  telemetry::Histogram histogram{kBounds};
  std::int64_t expected_sum = 0;
  std::int64_t expected_min = std::numeric_limits<std::int64_t>::max();
  std::int64_t expected_max = std::numeric_limits<std::int64_t>::min();
  const std::size_t observations = 200 + rng.index(800);
  for (std::size_t i = 0; i < observations; ++i) {
    const auto value =
        static_cast<std::int64_t>(rng.uniform(-200.0, 2000.0));
    histogram.observe(value);
    expected_sum += value;
    expected_min = std::min(expected_min, value);
    expected_max = std::max(expected_max, value);
  }
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= histogram.bounds().size(); ++i) {
    bucket_total += histogram.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, histogram.count());
  EXPECT_EQ(histogram.count(), observations);
  EXPECT_EQ(histogram.sum(), expected_sum);
  EXPECT_EQ(histogram.min(), expected_min);
  EXPECT_EQ(histogram.max(), expected_max);
}

TEST_P(TelemetryFuzzSweep, SpanNestingStaysWellFormed) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  common::Rng rng(GetParam() ^ 0xbeef);
  telemetry::Registry registry;
  telemetry::SpanStat& stat = registry.span("fuzz.span");
  std::int64_t clock = 0;
  std::uint64_t opened = 0;
  // Randomly-shaped recursive nesting: depth must track the open spans
  // exactly and return to 0, and every span must record a non-negative
  // duration under a monotonic clock.
  auto nest = [&](auto&& self, int depth_budget) -> void {
    telemetry::ScopedSpan span(stat, registry);
    ++opened;
    const int before = telemetry::ScopedSpan::depth();
    EXPECT_GE(before, 1);
    registry.set_now(++clock);
    if (depth_budget > 0 && rng.bernoulli(0.6)) {
      self(self, depth_budget - 1);
    }
    EXPECT_EQ(telemetry::ScopedSpan::depth(), before);
  };
  for (int i = 0; i < 50; ++i) nest(nest, static_cast<int>(rng.index(6)));
  EXPECT_EQ(telemetry::ScopedSpan::depth(), 0);
  EXPECT_EQ(stat.count(), opened);
  EXPECT_GE(stat.min(), 0);
  EXPECT_GE(stat.total(), stat.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TelemetryFuzzSweep,
                         ::testing::Values(3u, 17u, 404u, 5150u));

// ---------------------------------------------------------------------------
// Experiment determinism across seeds (each seed reproducible, different
// seeds produce different trajectories).
// ---------------------------------------------------------------------------

TEST(Determinism, DifferentScenarioSeedsDiverge) {
  harness::TrainingConfig training;
  training.collection_steps = 20;
  training.autoencoder.epochs = 3;
  training.ppo_iterations = 1;
  training.steps_per_iteration = 16;
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  const auto system = harness::train_system(
      core::AgentProfile::kHighThroughput, scenario, training);

  harness::ExperimentOptions options;
  options.decisions = 10;
  auto run_with_seed = [&](std::uint64_t seed) {
    netsim::ScenarioConfig seeded = scenario;
    seeded.seed = seed;
    return harness::run_experiment(system, seeded, options, training);
  };
  const auto a = run_with_seed(1);
  const auto b = run_with_seed(2);
  EXPECT_NE(a.embb_bitrate_mbps, b.embb_bitrate_mbps);
}

// ---------------------------------------------------------------------------
// Serving degradation-ladder properties (DESIGN.md §12) under randomized
// load streams, fault outcomes and submission patterns.
// ---------------------------------------------------------------------------

class ServingLadderSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Tier transitions are monotone in load: a ladder fed pointwise-higher
// pressure can never sit at a more expensive (lower) tier than a ladder fed
// the lower stream. The EWMA is monotone in its inputs and the hysteresis
// streak counters reset together, so the tiers never cross.
TEST_P(ServingLadderSweep, TierIsMonotoneInLoad) {
  using xai::serving::DegradationLadder;
  common::Rng rng(GetParam());
  DegradationLadder low;
  DegradationLadder high;
  for (int step = 0; step < 2000; ++step) {
    const auto pressure = rng.uniform_int(0, 30);
    const auto extra = rng.uniform_int(0, 10);
    low.observe_pressure(pressure, step);
    high.observe_pressure(pressure + extra, step);
    ASSERT_GE(static_cast<int>(high.active_tier()),
              static_cast<int>(low.active_tier()))
        << "at step " << step;
    ASSERT_GE(high.pressure_ewma(), low.pressure_ewma());
  }
}

// Hysteresis prevents oscillation. Two guarantees, probed separately:
// with ewma_shift = 0 (pure streak hysteresis) a single spike of ANY
// magnitude never flips the tier, because the demote streak requires two
// consecutive out-of-band observations; with the default EWMA smoothing a
// spike within the smoothing headroom decays below the threshold before
// the streak can fill.
TEST_P(ServingLadderSweep, SingleSpikeNeverFlipsTheTier) {
  using xai::serving::DegradationLadder;
  using xai::serving::LadderConfig;
  common::Rng rng(GetParam());

  LadderConfig unsmoothed;  // demote_streak 2, promote_streak 4
  unsmoothed.ewma_shift = 0;
  DegradationLadder streak_only(unsmoothed);
  DegradationLadder smoothed;  // default ewma_shift = 2
  std::int64_t tick = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      streak_only.observe_pressure(0, tick);
      smoothed.observe_pressure(0, tick);
      ++tick;
    }
    ASSERT_EQ(streak_only.active_tier(), xai::serving::Tier::kExact);
    ASSERT_EQ(smoothed.active_tier(), xai::serving::Tier::kExact);
    // Unbounded spike against the streak-only ladder: never flips.
    streak_only.observe_pressure(rng.uniform_int(0, 1000000), tick);
    // Against the smoothed ladder the spike must decay below the first
    // demote edge (96 in fixed point) within one step so the 2-streak
    // can't fill. Worst case with the idle-decay residue (<= 7):
    // spike 24 -> ewma 7 + (384-7)/4 = 101, then 101 - 101/4 = 76 < 96.
    smoothed.observe_pressure(rng.uniform_int(0, 24), tick);
    ++tick;
    streak_only.observe_pressure(0, tick);
    smoothed.observe_pressure(0, tick);
    ++tick;
    ASSERT_EQ(streak_only.active_tier(), xai::serving::Tier::kExact);
    ASSERT_EQ(smoothed.active_tier(), xai::serving::Tier::kExact);
  }
  EXPECT_EQ(streak_only.demotions(), 0u);
  EXPECT_EQ(smoothed.demotions(), 0u);
}

// While the shared ladder is stale (watchdog gap), no request is ever
// served with a freshly computed attribution: everything delivered comes
// from the last-good cache, and heads with no cached value are shed.
TEST_P(ServingLadderSweep, StaleLadderNeverAttributesFresh) {
  common::Rng rng(GetParam());
  telemetry::ScopedRegistry registry;
  ml::PpoAgent agent{11};
  std::vector<ml::Vector> background;
  for (int r = 0; r < 4; ++r) {
    ml::Vector row(ml::kLatentDim);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  xai::serving::DegradationLadder ladder;
  ExplainService::Config config;
  config.queue_capacity = 8;
  config.workers = 1;
  config.sampled_permutations = 4;
  config.max_background = 4;
  ExplainService service(agent, background, nullptr, config, &ladder);

  ml::AgentAction action;
  action.prb_choice = 0;
  action.sched_choice = {0, 0, 0};
  ml::Vector x(ml::kLatentDim);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);

  // Prime the cache for one random head while healthy.
  const auto cached_head =
      static_cast<std::uint32_t>(rng.index(ml::kNumHeads));
  ASSERT_TRUE(service.submit(x, cached_head, action, 10).accepted);
  service.run_until(10, 300);
  ASSERT_EQ(service.drain().size(), 1u);

  ladder.record_gap(300);
  std::int64_t now = 310;
  for (int i = 0; i < 30; ++i) {
    const auto head = static_cast<std::uint32_t>(rng.index(ml::kNumHeads));
    (void)service.submit(x, head, action, now);
    now += static_cast<std::int64_t>(rng.uniform_int(1, 20));
    service.run_until(now - 1, now);
  }
  service.run_until(now, now + 300);
  for (const auto& result : service.drain()) {
    if (result.shed_reason != xai::serving::ShedReason::kNone) continue;
    ASSERT_EQ(result.tier, xai::serving::Tier::kCached);
    ASSERT_TRUE(result.from_cache);
    ASSERT_EQ(result.output_index, cached_head);  // only primed head serves
  }
}

// The breaker's state machine is deterministic and legally sequenced for
// any outcome stream: replaying the same stream reproduces the same state
// trajectory, and the only transitions ever observed are closed -> open,
// open -> half-open, half-open -> open and half-open -> closed.
TEST_P(ServingLadderSweep, BreakerSequencingIsDeterministic) {
  using xai::serving::BreakerConfig;
  using xai::serving::CircuitBreaker;
  using State = xai::serving::CircuitBreaker::State;
  BreakerConfig config;
  config.failure_threshold = 2;
  config.open_ticks = 7;
  config.successes_to_close = 2;

  auto run = [&config](std::uint64_t seed) {
    common::Rng rng(seed);
    CircuitBreaker breaker(config);
    std::vector<State> trajectory;
    for (std::int64_t tick = 0; tick < 500; ++tick) {
      breaker.on_tick(tick);
      if (breaker.allow_eval() && rng.bernoulli(0.5)) {
        if (rng.bernoulli(0.3)) {
          breaker.record_failure(tick);
        } else {
          breaker.record_success(tick);
        }
      }
      trajectory.push_back(breaker.state());
    }
    return trajectory;
  };

  const auto a = run(GetParam());
  const auto b = run(GetParam());
  ASSERT_EQ(a, b);  // byte-identical replay

  for (std::size_t i = 1; i < a.size(); ++i) {
    const State from = a[i - 1];
    const State to = a[i];
    if (from == to) continue;
    const bool legal = (from == State::kClosed && to == State::kOpen) ||
                       (from == State::kOpen && to == State::kHalfOpen) ||
                       (from == State::kHalfOpen && to == State::kOpen) ||
                       (from == State::kHalfOpen && to == State::kClosed);
    ASSERT_TRUE(legal) << "illegal transition at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingLadderSweep,
                         ::testing::Values(2u, 29u, 311u, 9001u));

// ---------------------------------------------------------------------------
// Wire codec properties under seeded random messages (DESIGN.md §13).
// Iteration counts scale with EXPLORA_FUZZ_ITERS — the CI wire-fuzz job
// runs these sweeps large under ubsan; the local default stays fast.
// ---------------------------------------------------------------------------

class WireCodecFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

// decode(encode(m)) == m for every message the generators can produce:
// all three payload kinds, empty senders, empty KPI vectors, negative
// ticks (zigzag), full scheduler-policy range.
TEST_P(WireCodecFuzzSweep, EncodeDecodeIsIdentity) {
  common::Rng rng(GetParam());
  const std::size_t iters = testfix::fuzz_iters();
  for (std::size_t trial = 0; trial < iters; ++trial) {
    const oran::RicMessage message = testfix::random_message(rng);
    const auto wire = oran::wire::encode_message_frame(message);
    ASSERT_EQ(oran::wire::decode_message_frame(wire), message);
    // Re-encoding the decoded message is byte-stable (canonical form).
    ASSERT_EQ(oran::wire::encode_message_frame(
                  oran::wire::decode_message_frame(wire)),
              wire);
  }
}

// Every single-byte truncation of a valid frame either throws
// SerializeError or decodes cleanly — never crashes, never reads out of
// bounds (the asan/ubsan presets run this exact sweep).
TEST_P(WireCodecFuzzSweep, EveryTruncationThrowsOrDecodes) {
  common::Rng rng(GetParam() ^ 0x7e57);
  const std::size_t iters = testfix::fuzz_iters(8);
  for (std::size_t trial = 0; trial < iters; ++trial) {
    const auto wire =
        oran::wire::encode_message_frame(testfix::random_message(rng));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      try {
        (void)oran::wire::decode_message_frame(
            std::span<const std::uint8_t>(wire.data(), len));
      } catch (const common::SerializeError&) {
        // clean rejection is the expected common case
      }
    }
  }
}

// Seeded byte corruption (1..8 overwritten bytes per trial) must likewise
// throw or decode, never crash.
TEST_P(WireCodecFuzzSweep, SeededCorruptionThrowsOrDecodes) {
  common::Rng rng(GetParam() ^ 0xc0de);
  const std::size_t iters = testfix::fuzz_iters();
  for (std::size_t trial = 0; trial < iters; ++trial) {
    auto wire =
        oran::wire::encode_message_frame(testfix::random_message(rng));
    const std::size_t flips = 1 + rng.index(8);
    for (std::size_t f = 0; f < flips; ++f) {
      wire[rng.index(wire.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      (void)oran::wire::decode_message_frame(wire);
    } catch (const common::SerializeError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireCodecFuzzSweep,
                         ::testing::Values(11u, 97u, 1009u, 424242u));

}  // namespace
}  // namespace explora
