// Unit tests for the explanation-serving layer: the bounded FIFO queue,
// the unified degradation ladder, the circuit breaker, and the
// ExplainService composed from them (admission, deadline shedding,
// tier walk-down, caching, fault fallback, determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <vector>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "explora/explain_service.hpp"
#include "ml/features.hpp"
#include "ml/ppo.hpp"
#include "xai/agent_model.hpp"
#include "xai/serving.hpp"
#include "xai/shap.hpp"
#include "xai/tree.hpp"

namespace explora {
namespace {

using xai::serving::BoundedRequestQueue;
using xai::serving::BreakerConfig;
using xai::serving::CircuitBreaker;
using xai::serving::CostModel;
using xai::serving::DegradationLadder;
using xai::serving::kPressureScale;
using xai::serving::LadderConfig;
using xai::serving::Request;
using xai::serving::ShedReason;
using xai::serving::Tier;

// ---------------------------------------------------------------------------
// BoundedRequestQueue
// ---------------------------------------------------------------------------

std::array<std::uint32_t, 4> ctx(std::uint32_t tag) {
  return {tag, tag + 1, tag + 2, tag + 3};
}

TEST(BoundedRequestQueue, FifoOrderCapacityBoundAndWraparound) {
  BoundedRequestQueue queue(4, 3);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_EQ(queue.feature_dim(), 3u);

  Request out;
  out.x.resize(3);
  EXPECT_FALSE(queue.try_pop(out));  // empty

  const std::vector<double> x{1.0, 2.0, 3.0};
  for (std::uint64_t id = 1; id <= 4; ++id) {
    EXPECT_TRUE(queue.try_push(id, 0, ctx(static_cast<std::uint32_t>(id)),
                               10, 20, x));
  }
  EXPECT_FALSE(queue.try_push(5, 0, ctx(5), 10, 20, x));  // full: rejected
  EXPECT_EQ(queue.depth(), 4u);

  // Wraparound: cycle several capacities worth of pushes through.
  std::uint64_t next_push = 5;
  std::uint64_t next_pop = 1;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out.id, next_pop);
      EXPECT_EQ(out.context[0], static_cast<std::uint32_t>(next_pop));
      EXPECT_EQ(out.x, x);
      EXPECT_EQ(out.submitted, 10);
      EXPECT_EQ(out.deadline, 20);
      ++next_pop;
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(queue.try_push(next_push, 1,
                                 ctx(static_cast<std::uint32_t>(next_push)),
                                 10, 20, x));
      ++next_push;
    }
  }
  while (queue.try_pop(out)) {
    EXPECT_EQ(out.id, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_EQ(queue.high_water(), 4u);
}

TEST(BoundedRequestQueue, CapacityRoundsUpToPowerOfTwo) {
  BoundedRequestQueue queue(5, 1);
  EXPECT_EQ(queue.capacity(), 8u);
}

// ---------------------------------------------------------------------------
// DegradationLadder
// ---------------------------------------------------------------------------

LadderConfig fast_ladder() {
  LadderConfig config;
  config.demote_streak = 2;
  config.promote_streak = 3;
  config.ewma_shift = 0;  // EWMA == last sample: exact threshold control
  config.recovery_clean_reports = 3;
  return config;
}

TEST(DegradationLadder, DemotesOnSustainedPressureAndPromotesBack) {
  DegradationLadder ladder(fast_ladder());
  std::vector<DegradationLadder::Transition> transitions;
  ladder.set_transition_hook(
      [&](const DegradationLadder::Transition& t) { transitions.push_back(t); });

  EXPECT_EQ(ladder.active_tier(), Tier::kExact);
  ladder.observe_pressure(8, 1);  // >= demote_above[exact] = 6
  EXPECT_EQ(ladder.active_tier(), Tier::kExact);  // streak 1 of 2
  ladder.observe_pressure(8, 2);
  EXPECT_EQ(ladder.active_tier(), Tier::kSampled);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].from, Tier::kExact);
  EXPECT_EQ(transitions[0].to, Tier::kSampled);
  EXPECT_EQ(transitions[0].trigger, DegradationLadder::Trigger::kLoad);
  EXPECT_EQ(transitions[0].at, 2);
  EXPECT_EQ(ladder.demotions(), 1u);

  // Promotion needs promote_streak samples at/below promote_below[sampled].
  for (int i = 0; i < 3; ++i) ladder.observe_pressure(1, 10 + i);
  EXPECT_EQ(ladder.active_tier(), Tier::kExact);
  EXPECT_EQ(ladder.promotions(), 1u);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1].to, Tier::kExact);
}

TEST(DegradationLadder, SingleSpikeCannotFlipTheTier) {
  DegradationLadder ladder(fast_ladder());
  ladder.observe_pressure(100, 1);  // one huge spike
  ladder.observe_pressure(0, 2);    // back to idle before the streak fills
  EXPECT_EQ(ladder.active_tier(), Tier::kExact);
  EXPECT_EQ(ladder.demotions(), 0u);
}

TEST(DegradationLadder, HysteresisBandPreventsOscillation) {
  DegradationLadder ladder(fast_ladder());
  // Demote to sampled.
  ladder.observe_pressure(8, 1);
  ladder.observe_pressure(8, 2);
  ASSERT_EQ(ladder.active_tier(), Tier::kSampled);
  // A load level inside the band (above promote_below[sampled]=2, below
  // demote_above[sampled]=12) must hold the tier forever.
  for (int i = 0; i < 50; ++i) ladder.observe_pressure(7, 10 + i);
  EXPECT_EQ(ladder.active_tier(), Tier::kSampled);
  EXPECT_EQ(ladder.demotions(), 1u);
  EXPECT_EQ(ladder.promotions(), 0u);
}

TEST(DegradationLadder, StalenessPinsCachedUntilCleanStreakCompletes) {
  DegradationLadder ladder(fast_ladder());
  std::vector<DegradationLadder::Transition> transitions;
  ladder.set_transition_hook(
      [&](const DegradationLadder::Transition& t) { transitions.push_back(t); });

  ladder.record_gap(100);
  EXPECT_TRUE(ladder.stale());
  EXPECT_EQ(ladder.active_tier(), Tier::kCached);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].trigger, DegradationLadder::Trigger::kStaleGap);

  EXPECT_FALSE(ladder.record_clean(101));  // streak 1/3
  EXPECT_FALSE(ladder.record_clean(102));  // 2/3
  ladder.record_gap(103);                  // gap restarts the quarantine
  EXPECT_EQ(transitions.size(), 1u);       // no duplicate enter transition
  EXPECT_FALSE(ladder.record_clean(104));
  EXPECT_FALSE(ladder.record_clean(105));
  EXPECT_TRUE(ladder.record_clean(106));  // 3/3: recovered
  EXPECT_FALSE(ladder.stale());
  EXPECT_EQ(ladder.active_tier(), Tier::kExact);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1].trigger, DegradationLadder::Trigger::kRecovery);
}

TEST(DegradationLadder, BreakerFloorsAtSurrogateAndComposesWithStaleness) {
  DegradationLadder ladder(fast_ladder());
  ladder.set_model_available(false, 5);
  EXPECT_EQ(ladder.active_tier(), Tier::kSurrogate);
  ladder.record_gap(6);  // staleness is the stronger floor
  EXPECT_EQ(ladder.active_tier(), Tier::kCached);
  ladder.set_model_available(true, 7);
  EXPECT_EQ(ladder.active_tier(), Tier::kCached);  // still stale
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresThenProbesClosed) {
  BreakerConfig config;
  config.failure_threshold = 3;
  config.open_ticks = 10;
  config.successes_to_close = 2;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure(1);
  breaker.record_success(2);  // success resets the failure run
  breaker.record_failure(3);
  breaker.record_failure(4);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.record_failure(5);  // third consecutive: trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow_eval());
  EXPECT_EQ(breaker.trips(), 1u);

  breaker.on_tick(14);  // open window not yet elapsed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.on_tick(15);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow_eval());

  breaker.record_success(16);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);  // 1/2
  breaker.record_success(17);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, HalfOpenProbeFailureReopensImmediately) {
  BreakerConfig config;
  config.failure_threshold = 2;
  config.open_ticks = 4;
  CircuitBreaker breaker(config);
  breaker.record_failure(1);
  breaker.record_failure(2);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  breaker.on_tick(6);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.record_failure(7);  // one probe failure suffices
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreaker, EveryOrderingOfTwoCallersKeepsInvariants) {
  // The breaker is externally synchronized, so whole calls are the unit
  // of interleaving. Caller A is a failing eval path, caller B the
  // tick/probe path; the 6 orderings of their calls are every case: the
  // 4-bit masks with two bits set mark which of the four calls are B's.
  BreakerConfig config;
  config.failure_threshold = 2;
  config.open_ticks = 2;
  config.successes_to_close = 1;

  std::set<CircuitBreaker::State> end_states;
  bool saw_trip = false;
  bool saw_no_trip = false;
  int orderings = 0;
  for (unsigned b_calls_at = 0; b_calls_at < 16; ++b_calls_at) {
    if (std::popcount(b_calls_at) != 2) continue;
    CircuitBreaker breaker(config);
    int a_calls = 0;
    int b_calls = 0;
    for (unsigned call = 0; call < 4; ++call) {
      if (((b_calls_at >> call) & 1U) == 0U) {
        breaker.record_failure(++a_calls);  // ticks 1 and 2
      } else if (b_calls++ == 0) {
        breaker.on_tick(5);
      } else {
        breaker.record_success(6);
      }
      EXPECT_EQ(breaker.allow_eval(),
                breaker.state() != CircuitBreaker::State::kOpen);
      EXPECT_LE(breaker.trips(), 1u);
      EXPECT_GE(breaker.consecutive_failures(), 0);
      EXPECT_LE(breaker.consecutive_failures(), 2);
    }
    if (breaker.trips() == 0) {
      // A success between the two failures reset the streak.
      EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
      saw_no_trip = true;
    } else {
      saw_trip = true;
    }
    end_states.insert(breaker.state());
    ++orderings;
  }

  EXPECT_EQ(orderings, 6);
  EXPECT_TRUE(saw_trip);
  EXPECT_TRUE(saw_no_trip);
  // Where the probe lands relative to the trip decides the end state.
  EXPECT_EQ(end_states.count(CircuitBreaker::State::kClosed), 1u);
  EXPECT_EQ(end_states.count(CircuitBreaker::State::kOpen), 1u);
}

TEST(CostModel, WalksDownToTheCheapestFittingTier) {
  CostModel costs;  // {128, 32, 4, 1}
  EXPECT_EQ(costs.cheapest_tier_fitting(200, Tier::kExact), Tier::kExact);
  EXPECT_EQ(costs.cheapest_tier_fitting(100, Tier::kExact), Tier::kSampled);
  EXPECT_EQ(costs.cheapest_tier_fitting(5, Tier::kExact), Tier::kSurrogate);
  EXPECT_EQ(costs.cheapest_tier_fitting(1, Tier::kExact), Tier::kCached);
  EXPECT_FALSE(costs.cheapest_tier_fitting(0, Tier::kExact).has_value());
  // The floor is respected: a demoted ladder never serves above it.
  EXPECT_EQ(costs.cheapest_tier_fitting(200, Tier::kSurrogate),
            Tier::kSurrogate);
}

// ---------------------------------------------------------------------------
// ExplainService
// ---------------------------------------------------------------------------

std::vector<ml::Vector> make_background(std::size_t rows) {
  std::vector<ml::Vector> background;
  for (std::size_t r = 0; r < rows; ++r) {
    ml::Vector x(ml::kLatentDim);
    for (std::size_t f = 0; f < x.size(); ++f) {
      x[f] = 0.1 * static_cast<double>(r + 1) -
             0.05 * static_cast<double>(f);
    }
    background.push_back(std::move(x));
  }
  return background;
}

ml::Vector probe_latent() {
  ml::Vector x(ml::kLatentDim);
  for (std::size_t f = 0; f < x.size(); ++f) {
    x[f] = 0.3 - 0.02 * static_cast<double>(f);
  }
  return x;
}

ml::AgentAction some_action() {
  ml::AgentAction action;
  action.prb_choice = 1;
  action.sched_choice = {0, 1, 2};
  return action;
}

xai::DecisionTreeClassifier make_surrogate() {
  xai::Dataset data;
  common::Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    ml::Vector x(ml::kLatentDim);
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
    data.labels.push_back(x[0] > 0.0 ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  xai::DecisionTreeClassifier tree;
  tree.fit(data, 2);
  return tree;
}

ExplainService::Config small_config() {
  ExplainService::Config config;
  config.queue_capacity = 8;
  config.workers = 1;
  config.sampled_permutations = 4;
  config.max_background = 4;
  return config;
}

// Bit-pattern equality of two attributions: as strict as comparing their
// bytes, and safe on the empty attribution of a shed notice.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double l, double r) {
                      return std::bit_cast<std::uint64_t>(l) ==
                             std::bit_cast<std::uint64_t>(r);
                    });
}

struct ServiceFixture {
  telemetry::ScopedRegistry registry;
  ml::PpoAgent agent{11};
  xai::DecisionTreeClassifier surrogate = make_surrogate();
  ExplainService service;

  explicit ServiceFixture(ExplainService::Config config = small_config(),
                          bool with_surrogate = true)
      : service(agent, make_background(4),
                with_surrogate ? &surrogate : nullptr, config) {}
};

TEST(ExplainService, ServesExactTierWhenIdleWithSimulatedLatency) {
  ServiceFixture fx;
  const auto submit =
      fx.service.submit(probe_latent(), 0, some_action(), 100);
  ASSERT_TRUE(submit.accepted);

  fx.service.run_until(100, 100 + 1 + fx.service.config().costs.cost(
                                          Tier::kExact));
  const auto results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, submit.id);
  EXPECT_EQ(results[0].tier, Tier::kExact);
  EXPECT_EQ(results[0].shed_reason, ShedReason::kNone);
  EXPECT_FALSE(results[0].degraded);
  EXPECT_EQ(results[0].attribution.size(), ml::kLatentDim);
  // Dispatched on the first tick after submission, done cost ticks later.
  EXPECT_EQ(results[0].latency,
            1 + fx.service.config().costs.cost(Tier::kExact));
  const auto stats = fx.service.stats();
  EXPECT_EQ(stats.served_by_tier[0], 1u);
  EXPECT_EQ(stats.shed_total(), 0u);
}

TEST(ExplainService, AdmissionShedsWithReasonOnceBoundsAreHit) {
  ExplainService::Config config = small_config();
  config.queue_capacity = 2;      // rounds to 2
  config.in_flight_budget = 2;    // tighter than capacity + workers
  ServiceFixture fx(config);

  const auto a = fx.service.submit(probe_latent(), 0, some_action(), 10);
  const auto b = fx.service.submit(probe_latent(), 1, some_action(), 10);
  const auto c = fx.service.submit(probe_latent(), 2, some_action(), 10);
  EXPECT_TRUE(a.accepted);
  EXPECT_TRUE(b.accepted);
  EXPECT_FALSE(c.accepted);
  EXPECT_EQ(c.shed_reason, ShedReason::kInFlightBudget);

  const auto stats = fx.service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_by_reason[static_cast<std::size_t>(
                ShedReason::kInFlightBudget)],
            1u);
  EXPECT_LE(fx.service.queue().high_water(), fx.service.queue().capacity());
}

TEST(ExplainService, QueueFullIsReportedWhenBudgetAllowsMoreThanCapacity) {
  ExplainService::Config config = small_config();
  config.queue_capacity = 2;
  config.in_flight_budget = 64;  // budget permits more than the ring holds
  ServiceFixture fx(config);
  ASSERT_TRUE(fx.service.submit(probe_latent(), 0, some_action(), 1).accepted);
  ASSERT_TRUE(fx.service.submit(probe_latent(), 1, some_action(), 1).accepted);
  const auto c = fx.service.submit(probe_latent(), 2, some_action(), 1);
  EXPECT_FALSE(c.accepted);
  EXPECT_EQ(c.shed_reason, ShedReason::kQueueFull);
}

TEST(ExplainService, DeadlineAwareSheddingAndWalkDown) {
  ServiceFixture fx;
  // Deadline already unmeetable at dispatch: shed before any work.
  const auto hopeless =
      fx.service.submit(probe_latent(), 0, some_action(), 10, 11);
  ASSERT_TRUE(hopeless.accepted);
  fx.service.on_tick(11);  // budget 0: nothing fits
  auto results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].shed_reason, ShedReason::kDeadlineInfeasible);

  // Budget fits the surrogate but not SHAP: walk down, don't shed.
  const auto tight =
      fx.service.submit(probe_latent(), 1, some_action(), 20, 20 + 9);
  ASSERT_TRUE(tight.accepted);
  fx.service.run_until(20, 40);
  results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, tight.id);
  EXPECT_EQ(results[0].tier, Tier::kSurrogate);
  EXPECT_TRUE(results[0].degraded);
  EXPECT_EQ(results[0].attribution.size(), ml::kLatentDim);
}

TEST(ExplainService, CachedTierRequiresAPrimedCache) {
  ServiceFixture fx;
  // Budget of 1 tick only fits kCached; nothing is cached yet.
  const auto cold =
      fx.service.submit(probe_latent(), 0, some_action(), 10, 10 + 2);
  ASSERT_TRUE(cold.accepted);
  fx.service.on_tick(11);
  auto results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].shed_reason, ShedReason::kNoCachedResult);

  // Serve one exact result for that head, then the cached tier works.
  const auto warm = fx.service.submit(probe_latent(), 0, some_action(), 20);
  ASSERT_TRUE(warm.accepted);
  fx.service.run_until(20, 200);
  results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  const std::vector<double> exact_phi = results[0].attribution;

  const auto hit =
      fx.service.submit(probe_latent(), 0, some_action(), 300, 300 + 2);
  ASSERT_TRUE(hit.accepted);
  fx.service.run_until(300, 310);
  results = fx.service.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].tier, Tier::kCached);
  EXPECT_TRUE(results[0].from_cache);
  EXPECT_EQ(results[0].attribution, exact_phi);  // last-good, byte-equal
}

TEST(ExplainService, EvalFailuresTripBreakerAndFallBackToSurrogate) {
  ExplainService::Config config = small_config();
  config.eval_failure_probability = 1.0;  // every model eval fails
  config.breaker.failure_threshold = 2;
  config.breaker.open_ticks = 2000;  // stays open through the whole test
  ServiceFixture fx(config);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fx.service
                    .submit(probe_latent(), 0, some_action(),
                            100 + i * 200)
                    .accepted);
    fx.service.run_until(100 + i * 200, 100 + i * 200 + 150);
  }
  const auto results = fx.service.drain();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    EXPECT_EQ(result.shed_reason, ShedReason::kNone);
    EXPECT_TRUE(result.degraded);
    EXPECT_NE(result.tier, Tier::kExact);  // model path never succeeded
  }
  const auto stats = fx.service.stats();
  EXPECT_GE(stats.eval_faults, 2u);
  EXPECT_GE(stats.breaker_trips, 1u);
  // While the breaker is open the ladder floors at surrogate.
  EXPECT_EQ(fx.service.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(fx.service.ladder().active_tier(), Tier::kSurrogate);
}

TEST(ExplainService, RepeatedRunsProduceByteIdenticalStreams) {
  auto run = [] {
    ServiceFixture fx;
    std::vector<ExplanationResult> all;
    for (int d = 0; d < 6; ++d) {
      const auto now = 100 + d * 50;
      for (std::uint32_t i = 0; i < 3; ++i) {
        (void)fx.service.submit(probe_latent(), i % ml::kNumHeads,
                                some_action(), now, now + 40);
      }
      fx.service.run_until(now, now + 50);
    }
    fx.service.run_until(400, 800);
    auto drained = fx.service.drain();
    all.insert(all.end(), drained.begin(), drained.end());
    return all;
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tier, b[i].tier);
    EXPECT_EQ(a[i].shed_reason, b[i].shed_reason);
    EXPECT_EQ(a[i].latency, b[i].latency);
    ASSERT_EQ(a[i].attribution.size(), b[i].attribution.size());
    EXPECT_TRUE(same_bits(a[i].attribution, b[i].attribution));
  }
}

TEST(ExplainService, AttributionStreamIsThreadCountInvariant) {
  auto run = [](common::ThreadPool* pool) {
    ExplainService::Config config = small_config();
    config.pool = pool;
    ServiceFixture fx(config);
    (void)fx.service.submit(probe_latent(), 0, some_action(), 10);
    (void)fx.service.submit(probe_latent(), 1, some_action(), 10);
    fx.service.run_until(10, 400);
    return fx.service.drain();
  };
  common::ThreadPool one(1);
  common::ThreadPool four(4);
  const auto a = run(&one);
  const auto b = run(&four);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].attribution.size(), b[i].attribution.size());
    EXPECT_TRUE(same_bits(a[i].attribution, b[i].attribution));
  }
}

// ---------------------------------------------------------------------------
// ExplainService SHAP memo: one table per (snapshot, action, tier)
// ---------------------------------------------------------------------------

// Submits one request whose deadline fits `tier` and no dearer tier, runs
// the otherwise idle service until it is delivered, and returns it.
ExplanationResult serve_at(ExplainService& service, const ml::Vector& x,
                           std::uint32_t head, const ml::AgentAction& action,
                           Tier tier, xai::serving::Tick now) {
  const CostModel& costs = service.config().costs;
  const xai::serving::Tick deadline =
      tier == Tier::kExact ? 0 : now + 1 + costs.cost(tier);
  EXPECT_TRUE(service.submit(x, head, action, now, deadline).accepted);
  service.run_until(now, now + 1 + costs.cost(Tier::kExact));
  auto results = service.drain();
  EXPECT_EQ(results.size(), 1u);
  if (results.empty()) return {};
  EXPECT_EQ(results[0].tier, tier);
  return results[0];
}

std::uint64_t shap_explanations() {
  return telemetry::Scope("xai.shap").counter("explanations").value();
}

TEST(ExplainService, MemoisedRowsMatchAFreshExplainerForEveryHeadAndTier) {
  ServiceFixture fx;
  const ExplainService::Config& config = fx.service.config();
  xai::serving::Tick now = 100;
  for (const Tier tier : {Tier::kExact, Tier::kSampled}) {
    xai::ShapExplainer::Config shap;
    shap.mode = tier == Tier::kExact ? xai::ShapExplainer::Mode::kExact
                                     : xai::ShapExplainer::Mode::kSampling;
    shap.permutations = config.sampled_permutations;
    shap.max_background = config.max_background;
    shap.seed = config.seed;
    for (std::uint32_t head = 0; head < ml::kNumHeads; ++head) {
      const ExplanationResult served =
          serve_at(fx.service, probe_latent(), head, some_action(), tier, now);
      now += 200;
      xai::ShapExplainer fresh(
          xai::head_probability_model(fx.agent, some_action()),
          make_background(4), shap);
      const ml::Vector expected = fresh.explain(probe_latent(), head);
      ASSERT_EQ(served.attribution.size(), expected.size());
      EXPECT_TRUE(same_bits(served.attribution, expected))
          << "tier " << to_string(tier) << " head " << head;
    }
  }
}

TEST(ExplainService, MemoRecomputesWhenSnapshotActionOrTierChanges) {
  ServiceFixture fx;
  xai::serving::Tick now = 100;
  const auto serve = [&](const ml::Vector& x, std::uint32_t head,
                         const ml::AgentAction& action, Tier tier) {
    (void)serve_at(fx.service, x, head, action, tier, now);
    now += 200;
    return shap_explanations();
  };
  ml::Vector flipped = probe_latent();
  flipped[3] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(flipped[3]) ^
                                     std::uint64_t{1});
  ml::AgentAction other = some_action();
  other.prb_choice += 1;

  EXPECT_EQ(serve(probe_latent(), 0, some_action(), Tier::kExact), 1u);
  EXPECT_EQ(serve(probe_latent(), 1, some_action(), Tier::kExact), 1u);
  EXPECT_EQ(serve(flipped, 1, some_action(), Tier::kExact), 2u);
  EXPECT_EQ(serve(probe_latent(), 1, other, Tier::kExact), 3u);
  EXPECT_EQ(serve(probe_latent(), 1, some_action(), Tier::kSampled), 4u);
  // All four tables fit the memo, so none of them is computed again.
  EXPECT_EQ(serve(probe_latent(), 2, some_action(), Tier::kExact), 4u);
  EXPECT_EQ(serve(flipped, 2, some_action(), Tier::kExact), 4u);
  EXPECT_EQ(serve(probe_latent(), 2, other, Tier::kExact), 4u);
  EXPECT_EQ(serve(probe_latent(), 2, some_action(), Tier::kSampled), 4u);
}

TEST(ExplainService, FourHeadsServedOnTwoTiersComputeTwoTables) {
  ExplainService::Config config = small_config();
  config.workers = ml::kNumHeads;  // every request dispatches in one tick
  ServiceFixture fx(config);
  const CostModel& costs = fx.service.config().costs;
  const xai::serving::Tick now = 100;
  for (std::uint32_t head = 0; head < ml::kNumHeads; ++head) {
    // Odd heads get a deadline that only the sampled tier fits.
    const xai::serving::Tick deadline =
        head % 2 == 0 ? 0 : now + 1 + costs.cost(Tier::kSampled);
    ASSERT_TRUE(
        fx.service.submit(probe_latent(), head, some_action(), now, deadline)
            .accepted);
  }
  fx.service.run_until(now, now + 1 + costs.cost(Tier::kExact));
  ASSERT_EQ(fx.service.drain().size(), std::size_t{ml::kNumHeads});
  const auto stats = fx.service.stats();
  EXPECT_EQ(stats.served_by_tier[static_cast<std::size_t>(Tier::kExact)], 2u);
  EXPECT_EQ(stats.served_by_tier[static_cast<std::size_t>(Tier::kSampled)],
            2u);
  EXPECT_EQ(shap_explanations(), 2u);
}

TEST(ExplainService, MemoEvictsTheOldestSnapshotFirst) {
  ServiceFixture fx;
  xai::serving::Tick now = 100;
  const auto serve = [&](std::size_t k) {
    ml::Vector x = probe_latent();
    x[0] += 0.01 * static_cast<double>(k);
    (void)serve_at(fx.service, x, 0, some_action(), Tier::kExact, now);
    now += 200;
    return shap_explanations();
  };
  constexpr std::size_t kCapacity = ExplainService::kShapTableCapacity;
  for (std::size_t k = 0; k <= kCapacity; ++k) {
    EXPECT_EQ(serve(k), k + 1);
  }
  // Snapshot kCapacity evicted snapshot 0, the oldest, and no other.
  EXPECT_EQ(serve(1), kCapacity + 1);
  EXPECT_EQ(serve(0), kCapacity + 2);
}

std::uint64_t shap_model_evals() {
  return telemetry::Scope("xai.shap").counter("model_evals").value();
}

xai::ShapExplainer fresh_sampled_explainer(const ServiceFixture& fx) {
  const ExplainService::Config& config = fx.service.config();
  xai::ShapExplainer::Config shap;
  shap.mode = xai::ShapExplainer::Mode::kSampling;
  shap.permutations = config.sampled_permutations;
  shap.max_background = config.max_background;
  shap.seed = config.seed;
  return xai::ShapExplainer(
      xai::head_probability_model(fx.agent, some_action()),
      make_background(4), shap);
}

// Probe rows of one sampled table: (N + 1) prefix coalitions per
// permutation, one row per background row each.
std::uint64_t sampled_probe_rows(const ExplainService::Config& config) {
  return config.sampled_permutations * (ml::kLatentDim + 1) *
         config.max_background;
}

TEST(ExplainService, SampledTableFromResidentExactEntryMatchesFreshExplainer) {
  ServiceFixture fx;
  xai::serving::Tick now = 100;
  (void)serve_at(fx.service, probe_latent(), 0, some_action(), Tier::kExact,
                 now);
  now += 200;
  // Fill the memo with other snapshots, so the FIFO victim of the sampled
  // table below is the very exact entry it reads from.
  for (std::size_t k = 1; k < ExplainService::kShapTableCapacity; ++k) {
    ml::Vector other = probe_latent();
    other[0] += 0.01 * static_cast<double>(k);
    (void)serve_at(fx.service, other, 0, some_action(), Tier::kExact, now);
    now += 200;
  }
  const std::uint64_t evals_after_exact = shap_model_evals();
  std::vector<ExplanationResult> served;
  for (std::uint32_t head = 0; head < ml::kNumHeads; ++head) {
    served.push_back(serve_at(fx.service, probe_latent(), head,
                              some_action(), Tier::kSampled, now));
    now += 200;
  }
  // Every v(S) came from the exact entry: no model evaluation at all.
  EXPECT_EQ(shap_model_evals(), evals_after_exact);
  xai::ShapExplainer fresh = fresh_sampled_explainer(fx);
  const auto expected = fresh.explain_all_outputs(probe_latent());
  for (std::uint32_t head = 0; head < ml::kNumHeads; ++head) {
    ASSERT_EQ(served[head].attribution.size(), expected[head].size());
    EXPECT_TRUE(same_bits(served[head].attribution, expected[head]))
        << "head " << head;
  }
}

TEST(ExplainService, SampledRequestArrivingFirstComputesItsOwnTable) {
  ServiceFixture fx;
  const std::uint64_t rows = sampled_probe_rows(fx.service.config());
  xai::serving::Tick now = 100;
  const ExplanationResult sampled = serve_at(
      fx.service, probe_latent(), 1, some_action(), Tier::kSampled, now);
  now += 200;
  EXPECT_EQ(shap_model_evals(), rows);
  (void)serve_at(fx.service, probe_latent(), 1, some_action(), Tier::kExact,
                 now);
  now += 200;
  const std::uint64_t exact_rows =
      (std::uint64_t{1} << ml::kLatentDim) * fx.service.config().max_background;
  EXPECT_EQ(shap_model_evals(), rows + exact_rows);
  // The sampled table is still resident: a memo hit, not a rebuild.
  const ExplanationResult again = serve_at(
      fx.service, probe_latent(), 1, some_action(), Tier::kSampled, now);
  EXPECT_EQ(shap_model_evals(), rows + exact_rows);
  EXPECT_EQ(shap_explanations(), 2u);
  xai::ShapExplainer fresh = fresh_sampled_explainer(fx);
  const ml::Vector expected = fresh.explain(probe_latent(), 1);
  EXPECT_TRUE(same_bits(sampled.attribution, expected));
  EXPECT_TRUE(same_bits(again.attribution, expected));
}

// Per snapshot an exact then a sampled table: the accounted evaluations
// (Fig. 4's cost model) are unchanged, the performed ones drop by exactly
// the sampled tier's probe rows.
TEST(ExplainService, ModelEvalsDropByTheSampledTiersProbeRows) {
  ServiceFixture fx;
  const ExplainService::Config& config = fx.service.config();
  const std::uint64_t exact_rows =
      (std::uint64_t{1} << ml::kLatentDim) * config.max_background;
  xai::serving::Tick now = 100;
  constexpr std::uint64_t kSnapshots = 3;
  for (std::uint64_t k = 0; k < kSnapshots; ++k) {
    ml::Vector x = probe_latent();
    x[2] += 0.05 * static_cast<double>(k);
    (void)serve_at(fx.service, x, 0, some_action(), Tier::kExact, now);
    now += 200;
    (void)serve_at(fx.service, x, 1, some_action(), Tier::kSampled, now);
    now += 200;
  }
  const std::uint64_t accounted = static_cast<std::uint64_t>(
      telemetry::Scope("xai.shap").span("evals_per_explanation").total());
  EXPECT_EQ(accounted, kSnapshots * (exact_rows + sampled_probe_rows(config)));
  EXPECT_EQ(shap_model_evals(), kSnapshots * exact_rows);
  EXPECT_EQ(accounted - shap_model_evals(),
            kSnapshots * sampled_probe_rows(config));
}

TEST(ExplainService, SharedLadderStalenessForcesCachedOnlyResults) {
  telemetry::ScopedRegistry registry;
  ml::PpoAgent agent{11};
  xai::DecisionTreeClassifier surrogate = make_surrogate();
  DegradationLadder ladder;  // the "xApp" ladder, shared with the service
  ExplainService service(agent, make_background(4), &surrogate,
                         small_config(), &ladder);

  // Prime the cache for head 0 while healthy.
  ASSERT_TRUE(service.submit(probe_latent(), 0, some_action(), 10).accepted);
  service.run_until(10, 300);
  ASSERT_EQ(service.drain().size(), 1u);

  ladder.record_gap(300);  // watchdog detects a KPM gap
  ASSERT_TRUE(service.submit(probe_latent(), 0, some_action(), 310).accepted);
  ASSERT_TRUE(service.submit(probe_latent(), 1, some_action(), 310).accepted);
  service.run_until(310, 600);
  const auto results = service.drain();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    if (result.shed_reason == ShedReason::kNone) {
      // Never a fresh attribution while stale: only last-good cache.
      EXPECT_EQ(result.tier, Tier::kCached);
      EXPECT_TRUE(result.from_cache);
    } else {
      // Head 1 had no cached value — shed, never freshly attributed.
      EXPECT_EQ(result.shed_reason, ShedReason::kNoCachedResult);
    }
  }
}

TEST(ExplainService, TelemetryCountersMirrorStats) {
  telemetry::ScopedRegistry registry;
  ml::PpoAgent agent{11};
  ExplainService service(agent, make_background(4), nullptr, small_config());
  (void)service.submit(probe_latent(), 0, some_action(), 5);
  service.run_until(5, 200);
  (void)service.drain();

  telemetry::Scope scope("explora.serving");
  EXPECT_EQ(scope.counter("submitted").value(), 1u);
  EXPECT_EQ(scope.counter("accepted").value(), 1u);
  EXPECT_EQ(scope.counter("served.exact").value(), 1u);
  EXPECT_EQ(scope.counter("shed.queue_full").value(), 0u);
}

}  // namespace
}  // namespace explora
