// Unit tests for the per-slice MAC schedulers (netsim/scheduler).
#include "netsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "support/reference_scheduler.hpp"
#include "support/ue_step.hpp"

namespace explora::netsim {
namespace {

/// Unlimited backlog source (full-buffer traffic model).
class FullBufferSource final : public TrafficSource {
 public:
  ArrivalBatch arrivals(Tick /*now*/) override {
    return {.bytes = 125000, .packets = 100};  // plenty every TTI
  }
  double offered_bps() const noexcept override { return 1e9; }
};

/// Builds a UE at a given distance with a deterministic channel.
std::unique_ptr<Ue> make_ue(std::uint32_t id, double distance) {
  ChannelConfig config;
  config.fading_enabled = false;
  return std::make_unique<Ue>(
      id, Slice::kEmbb, UeChannel(distance, config, common::Rng(id + 1)),
      std::make_unique<FullBufferSource>(), 10'000'000);
}

std::uint64_t run_ttis(Scheduler& scheduler, std::vector<std::unique_ptr<Ue>>& ues,
                       std::uint32_t prbs, int ttis) {
  std::vector<Ue*> raw;
  for (auto& ue : ues) raw.push_back(ue.get());
  std::uint64_t total = 0;
  for (int t = 0; t < ttis; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, prbs);
  }
  for (auto& ue : ues) total += ue->harvest_window().tx_bytes;
  return total;
}

std::vector<std::uint64_t> per_ue_bytes(std::vector<std::unique_ptr<Ue>>& ues) {
  std::vector<std::uint64_t> out;
  for (auto& ue : ues) out.push_back(ue->harvest_window().tx_bytes);
  return out;
}

TEST(SchedulerFactory, CreatesRequestedPolicy) {
  const SchedulerMetrics metrics = SchedulerMetrics::bind();
  for (const SchedulerPolicy policy :
       {SchedulerPolicy::kRoundRobin, SchedulerPolicy::kWaterfilling,
        SchedulerPolicy::kProportionalFair}) {
    EXPECT_EQ(make_scheduler(policy, 0.05, metrics)->policy(), policy);
  }
}

TEST(RoundRobin, SplitsEvenlyAmongEqualUes) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  ues.push_back(make_ue(1, 800.0));
  RoundRobinScheduler scheduler{SchedulerMetrics::bind()};
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 100; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_NEAR(static_cast<double>(bytes[0]),
              static_cast<double>(bytes[1]),
              static_cast<double>(bytes[0]) * 0.02);
}

TEST(RoundRobin, ZeroBudgetServesNothing) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  RoundRobinScheduler scheduler{SchedulerMetrics::bind()};
  EXPECT_EQ(run_ttis(scheduler, ues, 0, 10), 0u);
}

TEST(RoundRobin, EmptyUeListIsSafe) {
  RoundRobinScheduler scheduler{SchedulerMetrics::bind()};
  std::vector<Ue*> none;
  scheduler.schedule_tti(none, 10);  // must not crash
}

TEST(RoundRobin, OddBudgetDoesNotStarveAnyUe) {
  std::vector<std::unique_ptr<Ue>> ues;
  for (std::uint32_t i = 0; i < 3; ++i) ues.push_back(make_ue(i, 800.0));
  RoundRobinScheduler scheduler{SchedulerMetrics::bind()};
  std::vector<Ue*> raw;
  for (auto& ue : ues) raw.push_back(ue.get());
  for (int t = 0; t < 300; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 7);  // 7 PRBs over 3 users
  }
  const auto bytes = per_ue_bytes(ues);
  for (std::uint64_t b : bytes) EXPECT_GT(b, 0u);
  const auto [min_it, max_it] = std::minmax_element(bytes.begin(), bytes.end());
  EXPECT_LT(static_cast<double>(*max_it - *min_it),
            static_cast<double>(*max_it) * 0.05);
}

TEST(Waterfilling, FavorsBestChannel) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 400.0));   // strong
  ues.push_back(make_ue(1, 1600.0));  // weak
  WaterfillingScheduler scheduler{SchedulerMetrics::bind()};
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 100; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  // Full-buffer users: the greedy policy gives everything to the strong UE.
  EXPECT_GT(bytes[0], 0u);
  EXPECT_EQ(bytes[1], 0u);
}

TEST(Waterfilling, SpillsOverWhenStrongUserDrains) {
  // Strong user with little data: the remaining budget reaches the weak one.
  class TrickleSource final : public TrafficSource {
   public:
    ArrivalBatch arrivals(Tick now) override {
      return now == 0 ? ArrivalBatch{.bytes = 125, .packets = 1}
                      : ArrivalBatch{};
    }
    double offered_bps() const noexcept override { return 1e3; }
  };
  ChannelConfig config;
  config.fading_enabled = false;
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(std::make_unique<Ue>(
      0, Slice::kEmbb, UeChannel(400.0, config, common::Rng(1)),
      std::make_unique<TrickleSource>()));
  ues.push_back(make_ue(1, 1600.0));
  WaterfillingScheduler scheduler{SchedulerMetrics::bind()};
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 10; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_GT(bytes[1], 0u);
}

TEST(ProportionalFair, BalancesThroughputAndFairness) {
  // PF should give the weak user a non-trivial share (unlike WF) while
  // still favoring the strong one (unlike RR in *throughput* terms).
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 400.0));
  ues.push_back(make_ue(1, 1600.0));
  ProportionalFairScheduler scheduler(0.05, SchedulerMetrics::bind());
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 500; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_GT(bytes[1], 0u);                 // weak UE is not starved
  EXPECT_GT(bytes[0], bytes[1]);           // strong UE still ahead
}

TEST(ProportionalFair, EqualChannelsShareEvenly) {
  std::vector<std::unique_ptr<Ue>> ues;
  ues.push_back(make_ue(0, 800.0));
  ues.push_back(make_ue(1, 800.0));
  ProportionalFairScheduler scheduler(0.1, SchedulerMetrics::bind());
  std::vector<Ue*> raw{ues[0].get(), ues[1].get()};
  for (int t = 0; t < 500; ++t) {
    testfix::step_tti(ues, t);
    scheduler.schedule_tti(raw, 10);
  }
  const auto bytes = per_ue_bytes(ues);
  EXPECT_NEAR(static_cast<double>(bytes[0]),
              static_cast<double>(bytes[1]),
              static_cast<double>(bytes[0]) * 0.05);
}

// Property sweep: throughput ordering WF >= PF >= RR for the *sum* rate
// when channels differ (textbook scheduler property), for several budgets.
class SchedulerOrderingSweep : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(SchedulerOrderingSweep, SumThroughputOrdering) {
  const std::uint32_t budget = GetParam();
  auto run = [&](SchedulerPolicy policy) {
    std::vector<std::unique_ptr<Ue>> ues;
    ues.push_back(make_ue(0, 400.0));
    ues.push_back(make_ue(1, 1600.0));
    auto scheduler = make_scheduler(policy, 0.05, SchedulerMetrics::bind());
    return run_ttis(*scheduler, ues, budget, 300);
  };
  const auto wf = run(SchedulerPolicy::kWaterfilling);
  const auto pf = run(SchedulerPolicy::kProportionalFair);
  const auto rr = run(SchedulerPolicy::kRoundRobin);
  EXPECT_GE(wf, pf);
  EXPECT_GE(pf, rr);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SchedulerOrderingSweep,
                         ::testing::Values(5u, 10u, 20u, 50u));

// ---- differential test against the per-PRB reference loops ---------------

/// Seeded bursty arrivals. With a non-zero `unit` every packet size is a
/// multiple of it, so a UE on a fixed channel whose unit is its bytes/PRB
/// always holds a whole number of PRBs; otherwise sizes are arbitrary and
/// the last PRB is usually partial.
class BurstSource final : public TrafficSource {
 public:
  BurstSource(common::Rng rng, std::uint32_t unit) : rng_(rng), unit_(unit) {}
  ArrivalBatch arrivals(Tick /*now*/) override {
    const auto packets = static_cast<std::uint32_t>(rng_.uniform_int(0, 3));
    const auto size = static_cast<std::uint32_t>(
        unit_ > 0 ? unit_ * rng_.uniform_int(1, 12) : rng_.uniform_int(1, 900));
    return {.bytes = std::uint64_t{packets} * size, .packets = packets};
  }
  double offered_bps() const noexcept override { return 0.0; }

 private:
  common::Rng rng_;
  std::uint32_t unit_;
};

/// One slice's UEs, built deterministically from `seed`; two calls with the
/// same seed give twins that evolve identically under equal grants.
std::vector<std::unique_ptr<Ue>> make_slice(std::uint64_t seed) {
  common::Rng rng(seed);
  const auto users = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
  ChannelConfig config;
  config.fading_enabled = rng.bernoulli(0.5);
  // A few shared distances make equal SINRs (WF id ties) and equal PF
  // metrics (index ties) likely on the fading-free channel.
  const std::array<double, 3> shared = {300.0, 1200.0, 2600.0};
  std::vector<std::uint32_t> ids(users);
  for (std::uint32_t i = 0; i < users; ++i) ids[i] = i;
  rng.shuffle(ids);
  std::vector<std::unique_ptr<Ue>> ues;
  for (std::uint32_t i = 0; i < users; ++i) {
    const double distance = rng.bernoulli(0.3)
                                ? shared[rng.index(shared.size())]
                                : rng.uniform(100.0, 4000.0);
    UeChannel channel(distance, config, rng.fork(2 * i));
    const std::uint32_t unit =
        !config.fading_enabled && rng.bernoulli(0.5) ? channel.bytes_per_prb()
                                                     : 0;
    const auto capacity =
        static_cast<std::uint64_t>(rng.uniform_int(2'000, 200'000));
    ues.push_back(std::make_unique<Ue>(
        ids[i], Slice::kEmbb, channel,
        std::make_unique<BurstSource>(rng.fork(2 * i + 1), unit), capacity));
  }
  return ues;
}

/// Shapes the sweep saw, so the test fails if it stops exercising them.
struct Coverage {
  std::array<bool, 16> cqi{};
  std::uint64_t whole_prb_buffers = 0;
  std::uint64_t partial_prb_buffers = 0;
};

/// Runs one seeded case: `ttis` TTIs of the production scheduler against
/// the reference loop on twin UE sets, comparing after every TTI.
void run_case(SchedulerPolicy policy, std::uint64_t seed, int ttis,
              Coverage& coverage) {
  constexpr double kAlpha = 0.05;
  telemetry::ScopedRegistry scoped;
  telemetry::Counter& granted =
      scoped.registry().counter("netsim.scheduler.prb_granted");
  auto scheduler = make_scheduler(policy, kAlpha, SchedulerMetrics::bind());
  auto ues = make_slice(seed);
  auto twins = make_slice(seed);
  std::vector<Ue*> raw;
  std::vector<Ue*> raw_twins;
  for (std::size_t i = 0; i < ues.size(); ++i) {
    raw.push_back(ues[i].get());
    raw_twins.push_back(twins[i].get());
  }
  common::Rng budgets(seed ^ 0x5eedULL);
  std::size_t rr_next = 0;
  for (int t = 0; t < ttis; ++t) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " tti " << t);
    testfix::step_tti(raw, t);
    testfix::step_tti(raw_twins, t);
    for (std::size_t i = 0; i < ues.size(); ++i) {
      const UeChannel& channel = ues[i]->channel();
      coverage.cqi[channel.cqi()] = true;
      if (ues[i]->has_data()) {
        (ues[i]->buffer_bytes() % channel.bytes_per_prb() == 0
             ? coverage.whole_prb_buffers
             : coverage.partial_prb_buffers) += 1;
      }
    }
    const auto budget = static_cast<std::uint32_t>(budgets.uniform_int(0, 50));
    const std::uint64_t granted_before = granted.value();
    scheduler->schedule_tti(raw, budget);
    scheduler->flush_telemetry();
    std::uint32_t expected_granted = 0;
    switch (policy) {
      case SchedulerPolicy::kRoundRobin:
        expected_granted =
            reference::round_robin_tti(raw_twins, budget, rr_next);
        break;
      case SchedulerPolicy::kWaterfilling:
        expected_granted = reference::waterfilling_tti(raw_twins, budget);
        break;
      case SchedulerPolicy::kProportionalFair:
        expected_granted =
            reference::proportional_fair_tti(raw_twins, budget, kAlpha);
        break;
    }
    if (telemetry::kCompiledIn) {
      ASSERT_EQ(granted.value() - granted_before, expected_granted);
    }
    for (std::size_t i = 0; i < ues.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "ue index " << i);
      const UeWindowCounters got = ues[i]->harvest_window();
      const UeWindowCounters want = twins[i]->harvest_window();
      ASSERT_EQ(got.tx_bytes, want.tx_bytes);
      ASSERT_EQ(got.tx_packets, want.tx_packets);
      ASSERT_EQ(got.dropped_bytes, want.dropped_bytes);
      ASSERT_EQ(ues[i]->buffer_bytes(), twins[i]->buffer_bytes());
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ues[i]->pf_average()),
                std::bit_cast<std::uint64_t>(twins[i]->pf_average()));
    }
  }
}

class SchedulerDifferential
    : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(SchedulerDifferential, GrantsMatchPerPrbReference) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    run_case(GetParam(), seed, 40, coverage);
    if (HasFatalFailure()) return;
  }
  for (std::uint32_t cqi = 1; cqi <= 15; ++cqi) {
    EXPECT_TRUE(coverage.cqi[cqi]) << "CQI " << cqi << " never drawn";
  }
  EXPECT_GT(coverage.whole_prb_buffers, 0u);
  EXPECT_GT(coverage.partial_prb_buffers, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SchedulerDifferential,
    ::testing::Values(SchedulerPolicy::kRoundRobin,
                      SchedulerPolicy::kWaterfilling,
                      SchedulerPolicy::kProportionalFair),
    [](const ::testing::TestParamInfo<SchedulerPolicy>& param) {
      return to_string(param.param);
    });

}  // namespace
}  // namespace explora::netsim
