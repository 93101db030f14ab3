// Realtime contracts by measurement (DESIGN.md §11): every per-TTI and
// per-probe hot path runs through a warm-up, then a measured window in
// which it must make no heap allocation on its thread and register no
// metric in a fresh telemetry registry. Locks live only in the
// concurrency-home files (DESIGN.md §9), and each lock entry point there
// either allocates first or is a registry name lookup, so the two counts
// also keep locks off these paths. The batch staging paths may allocate;
// for them only the registry check holds.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "explora/explain_service.hpp"
#include "explora/reward.hpp"
#include "explora/xapp.hpp"
#include "ml/autoencoder.hpp"
#include "ml/features.hpp"
#include "ml/gemm.hpp"
#include "ml/matrix.hpp"
#include "ml/nn.hpp"
#include "ml/ppo.hpp"
#include "netsim/kpi.hpp"
#include "netsim/scenario.hpp"
#include "oran/drl_xapp.hpp"
#include "oran/ric.hpp"
#include "support/alloc_counter.hpp"
#include "xai/serving.hpp"
#include "xai/shap.hpp"

namespace explora {
namespace {

using ml::gemm::Backend;

/// What a hot path cost over its measured window.
struct WindowCost {
  std::size_t allocations = 0;  ///< operator new calls on this thread
  std::size_t metrics = 0;      ///< metrics registered by name lookups
};

/// Runs `step` `warmup` times, then `measured` times under a fresh
/// ScopedRegistry, and returns what the measured calls cost.
template <typename Step>
WindowCost measure(Step&& step, std::size_t warmup, std::size_t measured) {
  for (std::size_t i = 0; i < warmup; ++i) step();
  telemetry::ScopedRegistry fresh;
  const std::size_t before = testfix::thread_allocations();
  for (std::size_t i = 0; i < measured; ++i) step();
  WindowCost cost;
  cost.allocations = testfix::thread_allocations() - before;
  cost.metrics = fresh.registry().size();
  return cost;
}

/// Scalar plus every SIMD backend this build and CPU can run.
std::vector<Backend> runnable_backends() {
  std::vector<Backend> backends{Backend::kScalar};
  for (Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (ml::gemm::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

std::vector<double> filled(std::size_t n, common::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// The gate is only as good as the counter: if another operator new (a
// sanitizer runtime's, say) won over the test binary's replacement, every
// count below would read 0 on any code. The aligned form backs Matrix and
// the layers' weight panels, so it is probed too.
TEST(RealtimeContract, AllocationCounterSeesEveryNew) {
  const std::size_t before = testfix::thread_allocations();
  int* volatile p = new int(7);
  const std::size_t after = testfix::thread_allocations();
  delete p;
  EXPECT_EQ(after - before, 1U);

  const std::size_t before_aligned = testfix::thread_allocations();
  const common::AlignedVector<double> v(8);
  EXPECT_EQ(testfix::thread_allocations() - before_aligned, 1U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) %
                common::kKernelAlignment,
            0U);
}

class RealtimeGnbRunTti
    : public ::testing::TestWithParam<netsim::TrafficProfile> {};

// The warm-up lets every UE queue and scheduler scratch vector reach its
// steady-state capacity; the next 25k TTIs must then allocate nothing.
// 100k, not fewer: under TRF2 the eMBB slice is loaded near its service
// rate, and its backlog sets its last depth record (a ring doubling) at
// TTI ~72k of the round-robin run.
TEST_P(RealtimeGnbRunTti, SteadyStateAllocatesNothing) {
  telemetry::ScopedRegistry owner;
  netsim::ScenarioConfig config;
  config.profile = GetParam();
  auto gnb = netsim::make_gnb(config);
  for (const auto policy : {netsim::SchedulerPolicy::kRoundRobin,
                            netsim::SchedulerPolicy::kWaterfilling,
                            netsim::SchedulerPolicy::kProportionalFair}) {
    netsim::SlicingControl control;
    control.prbs = {18, 15, 17};
    control.scheduling = {policy, policy, policy};
    gnb->apply_control(control);
    const WindowCost cost =
        measure([&] { gnb->run_tti(); }, 100'000, 25'000);
    EXPECT_EQ(cost.allocations, 0U)
        << "policy " << static_cast<int>(policy);
    EXPECT_EQ(cost.metrics, 0U) << "policy " << static_cast<int>(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, RealtimeGnbRunTti,
                         ::testing::Values(netsim::TrafficProfile::kTrf1,
                                           netsim::TrafficProfile::kTrf2));

// A policy swap builds a fresh scheduler that records into the metrics the
// gNB bound at construction, so it looks none up by name.
TEST(RealtimeContract, SchedulerSwapLooksUpNoMetric) {
  telemetry::ScopedRegistry owner;
  auto gnb = netsim::make_gnb(netsim::ScenarioConfig{});
  netsim::SlicingControl control;
  control.prbs = {18, 15, 17};
  std::size_t swap = 0;
  const WindowCost cost = measure(
      [&] {
        for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
          control.scheduling[s] = static_cast<netsim::SchedulerPolicy>(
              (swap + s) % netsim::kNumSchedulerPolicies);
        }
        ++swap;
        gnb->apply_control(control);
        gnb->run_tti();
      },
      10, 100);
  EXPECT_EQ(cost.metrics, 0U);
}

// A policy decision runs the actor and the critic on stack rows and
// samples each head from its slice of the actor's output.
TEST(RealtimeContract, PpoAgentDecisions) {
  telemetry::ScopedRegistry owner;
  common::Rng rng(29);
  const ml::PpoAgent agent{11};
  const ml::Vector state = filled(ml::kLatentDim, rng);
  std::array<double, ml::kNumHeads> temperatures{};
  temperatures.fill(0.9);
  temperatures[0] = 0.35;
  double log_probs = 0.0;
  const WindowCost cost = measure(
      [&] {
        log_probs += agent.act(state, rng, temperatures).log_prob;
        log_probs += agent.act_greedy(state).log_prob;
      },
      10, 1'000);
  EXPECT_EQ(cost.allocations, 0U);
  EXPECT_EQ(cost.metrics, 0U);
  EXPECT_TRUE(std::isfinite(log_probs));
}

// A report window harvests every UE into the report's inline per-UE
// lists, so it allocates no more than the TTIs it runs.
TEST(RealtimeContract, GnbReportWindow) {
  telemetry::ScopedRegistry owner;
  auto gnb = netsim::make_gnb(netsim::ScenarioConfig{});
  netsim::Tick last_end = 0;
  const WindowCost cost = measure(
      [&] { last_end = gnb->run_report_window().window_end; }, 4'000, 1'000);
  EXPECT_EQ(cost.allocations, 0U);
  EXPECT_EQ(cost.metrics, 0U);
  EXPECT_EQ(last_end, 5'000 * 25);
}

// One steady-state decision of run_experiment's loop with EXPLORA steering
// (perfbench's loop_steer): M report windows through E2 termination, the
// RMR router, the data repository, the DRL xApp and the EXPLORA xApp with
// AR1 steering, then the harness's reads of the repository. What a
// decision may still allocate is the archive growth ROADMAP item 6 leaves
// open: the explanation record's rationale string, the archives' amortized
// doubling, and the attribute stores of an action the graph has not seen
// yet (2,938 in 500 decisions, ~5.9 each, since the transition event holds
// its attributes inline).
TEST(RealtimeContract, ClosedLoopDecisionStaysWithinItsBudget) {
  constexpr std::size_t kBudgetPerDecision = 6;
  constexpr std::size_t kReportsPerDecision = ml::kHistory;
  telemetry::ScopedRegistry owner;
  const ml::KpiNormalizer normalizer;
  const ml::Autoencoder autoencoder;
  const ml::PpoAgent agent{11};
  oran::NearRtRic ric(netsim::make_gnb(netsim::ScenarioConfig{}));
  oran::DrlXapp::Config drl_config;
  drl_config.reports_per_decision = kReportsPerDecision;
  oran::DrlXapp drl(drl_config, normalizer, autoencoder, agent, ric.router());
  ric.attach_xapp(drl);
  ric.subscribe_indications(std::string(drl.endpoint_name()));
  core::ExploraXapp::Config explora_config;
  explora_config.reports_per_decision = kReportsPerDecision;
  core::ActionSteering::Config steering;
  steering.strategy = core::SteeringStrategy::kMaxReward;
  steering.observation_window = 10;
  explora_config.steering = steering;
  core::ExploraXapp explora(explora_config, ric.router(), &ric.repository());
  ric.attach_xapp(explora);
  ric.subscribe_indications(std::string(explora.endpoint_name()));
  ric.route_control_via(std::string(drl.endpoint_name()),
                        std::string(explora.endpoint_name()));
  const core::RewardModel reward(core::RewardWeights::high_throughput());

  double harvested = 0.0;
  const auto decide = [&] {
    ric.run_windows(kReportsPerDecision);
    for (const netsim::KpiReport& report :
         ric.repository().latest_reports(kReportsPerDecision)) {
      harvested += report.value(netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb);
    }
    harvested += reward.from_window(
        ric.repository().latest_reports(kReportsPerDecision));
  };
  constexpr std::size_t kMeasured = 500;
  const WindowCost cost = measure(decide, 500, kMeasured);
  EXPECT_LE(cost.allocations, kBudgetPerDecision * kMeasured)
      << cost.allocations << " allocations in " << kMeasured << " decisions";
  EXPECT_EQ(cost.metrics, 0U);
  EXPECT_EQ(drl.decisions_made(), 1'000U);
  EXPECT_GT(explora.controls_replaced(), 0U);
  EXPECT_TRUE(std::isfinite(harvested));
}

TEST(RealtimeContract, LocalHistogramFolds) {
  static constexpr std::int64_t kBounds[] = {3, 6, 9, 12, 15};
  telemetry::ScopedRegistry owner;
  telemetry::Histogram& target = owner.registry().histogram("cqi", kBounds);
  telemetry::LocalHistogram local(&target);
  std::int64_t value = 0;
  const WindowCost cost = measure(
      [&] {
        local.observe(value++ % 17);
        if (value % 25 == 0) local.flush();
      },
      1'000, 10'000);
  EXPECT_EQ(cost.allocations, 0U);
  EXPECT_EQ(cost.metrics, 0U);
}

// Batch 1 (one decision) and 64 (one SHAP probe chunk); 37 outputs leave
// a partial panel. The kernels keep no scratch, so the window starts at
// the first call.
TEST(RealtimeContract, GemmKernelsOnEveryBackend) {
  common::Rng rng(11);
  constexpr std::size_t kIn = 34;
  constexpr std::size_t kOut = 37;
  constexpr std::size_t kBatch = 64;
  const std::vector<double> w = filled(kOut * kIn, rng);
  common::AlignedVector<double> panels(ml::gemm::panel_size(kOut, kIn));
  ml::gemm::pack(w.data(), kOut, kIn, panels.data());
  const std::vector<double> bias = filled(kOut, rng);
  const std::vector<double> x = filled(kBatch * kIn, rng);
  std::vector<double> y(kBatch * kOut);
  const std::vector<double> logits =
      filled(kIn * ml::gemm::kSoftmaxLanes, rng);
  std::array<double, ml::gemm::kSoftmaxLanes> probs{};
  for (const Backend backend : runnable_backends()) {
    ml::gemm::ScopedBackend pinned(backend);
    ASSERT_TRUE(pinned.engaged()) << ml::gemm::to_string(backend);
    const WindowCost cost = measure(
        [&] {
          for (const std::size_t batch : {std::size_t{1}, kBatch}) {
            ml::gemm::run({panels.data(), kOut, kIn}, x.data(), batch,
                          y.data(), bias.data(),
                          ml::gemm::Epilogue::kBiasTanh);
          }
          ml::gemm::exp_array(x.data(), y.data(), x.size());
          ml::gemm::softmax_chosen_lanes(logits.data(), kIn, 5,
                                         probs.data());
        },
        0, 200);
    EXPECT_EQ(cost.allocations, 0U) << ml::gemm::to_string(backend);
    EXPECT_EQ(cost.metrics, 0U) << ml::gemm::to_string(backend);
  }
}

// A layer's weights are stored in the kernels' layout: no first-call
// packing scratch, so no warm-up.
TEST(RealtimeContract, DenseLayerForwardOnEveryBackend) {
  common::Rng rng(13);
  const ml::DenseLayer layer(34, 64, ml::Activation::kTanh, rng);
  const std::vector<double> in = filled(34, rng);
  std::vector<double> out(64);
  ml::Matrix batch_in(64, 34);
  for (double& v : batch_in.data()) v = rng.uniform(-2.0, 2.0);
  ml::Matrix batch_out(64, 64);
  for (const Backend backend : runnable_backends()) {
    ml::gemm::ScopedBackend pinned(backend);
    ASSERT_TRUE(pinned.engaged()) << ml::gemm::to_string(backend);
    const WindowCost cost = measure(
        [&] {
          layer.forward(in, out);
          layer.forward_batch(batch_in, batch_out);
        },
        0, 200);
    EXPECT_EQ(cost.allocations, 0U) << ml::gemm::to_string(backend);
    EXPECT_EQ(cost.metrics, 0U) << ml::gemm::to_string(backend);
  }
}

// Pushes until the ring is full (the refused push included), then drains
// it, so every measured step crosses the wraparound and both rejections.
TEST(RealtimeContract, BoundedRequestQueuePushPop) {
  constexpr std::size_t kDim = 6;
  xai::serving::BoundedRequestQueue queue(8, kDim);
  const std::array<double, kDim> x{1, 2, 3, 4, 5, 6};
  const std::array<std::uint32_t, 3> context{1, 2, 3};
  xai::serving::Request out;
  out.x.resize(kDim);
  std::uint64_t id = 0;
  const WindowCost cost = measure(
      [&] {
        while (queue.try_push(id, 0, context, 0, 10, x)) ++id;
        while (queue.try_pop(out)) {
        }
      },
      10, 1'000);
  EXPECT_EQ(cost.allocations, 0U);
  EXPECT_EQ(cost.metrics, 0U);
  EXPECT_EQ(out.id + 1, id);
}

std::vector<ml::Vector> latent_rows(std::size_t rows, common::Rng& rng) {
  std::vector<ml::Vector> out;
  for (std::size_t r = 0; r < rows; ++r) {
    out.push_back(filled(ml::kLatentDim, rng));
  }
  return out;
}

// Admission lands in a pre-sized ring slot or sheds: the window runs both
// (the ring fills after 64 accepted requests; nothing dispatches them).
TEST(RealtimeContract, ExplainServiceSubmit) {
  telemetry::ScopedRegistry owner;
  common::Rng rng(17);
  const ml::PpoAgent agent{11};
  ExplainService::Config config;
  config.queue_capacity = 64;
  config.in_flight_budget = 1'000;
  config.max_background = 4;
  ExplainService service(agent, latent_rows(4, rng), nullptr, config);
  const ml::Vector x = filled(ml::kLatentDim, rng);
  const ml::AgentAction chosen;
  xai::serving::Tick now = 1;
  const WindowCost cost = measure(
      [&] {
        static_cast<void>(service.submit(x, 0, chosen, now));
        ++now;
      },
      10, 200);
  EXPECT_EQ(cost.allocations, 0U);
  EXPECT_EQ(cost.metrics, 0U);
  EXPECT_EQ(service.stats().accepted, 64U);
  EXPECT_EQ(service.stats().submitted, 210U);
}

// The batch staging paths build their matrices per call, so only the
// registry check holds for them (DESIGN.md §11.1).
TEST(RealtimeContract, BatchForwardAndCoalitionsLookUpNoMetric) {
  telemetry::ScopedRegistry owner;
  common::Rng rng(19);
  const ml::Mlp mlp({ml::kLatentDim, 16, 3}, ml::Activation::kTanh,
                    ml::Activation::kLinear, rng);
  ml::Matrix batch(64, ml::kLatentDim);
  for (double& v : batch.data()) v = rng.uniform(-2.0, 2.0);
  common::ThreadPool serial(1);
  xai::ShapExplainer::Config shap;
  shap.max_background = 4;
  shap.pool = &serial;
  xai::ShapExplainer explainer(xai::batch_model(mlp), latent_rows(4, rng),
                               shap);
  const ml::Vector x = filled(ml::kLatentDim, rng);
  const WindowCost cost = measure(
      [&] {
        static_cast<void>(mlp.forward_batch(batch));
        static_cast<void>(explainer.coalition_table(x));
      },
      2, 5);
  EXPECT_EQ(cost.metrics, 0U);
}

}  // namespace
}  // namespace explora
