// google-benchmark microbenchmarks for the hot paths: the near-real-time
// budget of the RIC (10 ms - 1 s loops) is the paper's "lightweight for
// real-time operation" claim — these benches quantify every per-decision
// cost EXPLORA adds.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/contracts.hpp"
#include "common/format.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "ml/gemm.hpp"
#include "ml/nn.hpp"
#include "explora/distill.hpp"
#include "explora/edbr.hpp"
#include "explora/graph.hpp"
#include "explora/transitions.hpp"
#include "ml/autoencoder.hpp"
#include "ml/ppo.hpp"
#include "netsim/gnb.hpp"
#include "netsim/scenario.hpp"
#include "oran/rmr.hpp"
#include "oran/trace.hpp"
#include "oran/wire.hpp"
#include "xai/shap.hpp"
#include "xai/tree.hpp"

namespace {

using namespace explora;

netsim::KpiReport sample_report(common::Rng& rng) {
  netsim::KpiReport report;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    report.slices[s].tx_bitrate_mbps = {rng.uniform(0.0, 8.0)};
    report.slices[s].tx_packets = {rng.uniform(0.0, 300.0)};
    report.slices[s].buffer_bytes = {rng.uniform(0.0, 1e6)};
  }
  return report;
}

netsim::SlicingControl random_control(common::Rng& rng) {
  const auto& catalog = netsim::prb_catalog();
  netsim::SlicingControl control;
  control.prbs = catalog[rng.index(catalog.size())];
  for (auto& policy : control.scheduling) {
    policy = static_cast<netsim::SchedulerPolicy>(rng.index(3));
  }
  return control;
}

// ---- EXPLORA graph maintenance (per decision period) ----------------------

void BM_GraphBeginAction(benchmark::State& state) {
  common::Rng rng(1);
  core::AttributedGraph graph;
  for (auto _ : state) {
    graph.begin_action(random_control(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphBeginAction);

void BM_GraphRecordConsequence(benchmark::State& state) {
  common::Rng rng(2);
  core::AttributedGraph graph;
  graph.begin_action(random_control(rng));
  const auto report = sample_report(rng);
  for (auto _ : state) {
    graph.record_consequence(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GraphRecordConsequence);

void BM_SteeringDecision(benchmark::State& state) {
  common::Rng rng(3);
  core::AttributedGraph graph;
  // Populate a realistic graph: 64 actions, 500 transitions with samples.
  std::vector<netsim::SlicingControl> actions;
  for (int i = 0; i < 64; ++i) actions.push_back(random_control(rng));
  for (int i = 0; i < 500; ++i) {
    graph.begin_action(actions[rng.index(actions.size())]);
    graph.record_consequence(sample_report(rng));
  }
  core::ActionSteering steering(
      graph, core::RewardModel(core::RewardWeights::high_throughput()),
      {.strategy = core::SteeringStrategy::kMaxReward,
       .observation_window = 10});
  for (int i = 0; i < 10; ++i) steering.push_measured_reward(rng.uniform());
  const auto prev = actions[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        steering.steer(actions[rng.index(actions.size())], prev));
  }
}
BENCHMARK(BM_SteeringDecision);

// ---- explanation synthesis (the paper's 2.3 s figure) ---------------------

void BM_KnowledgeDistillation(benchmark::State& state) {
  common::Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<core::TransitionEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    core::TransitionEvent event;
    event.cls = static_cast<core::TransitionClass>(rng.index(4));
    event.delta.resize(core::kNumAttributes);
    event.js_divergence.resize(core::kNumAttributes);
    for (auto& d : event.delta) d = rng.normal(0.0, 1.0);
    for (auto& j : event.js_divergence) j = rng.uniform();
    events.push_back(std::move(event));
  }
  core::KnowledgeDistiller distiller;
  for (auto _ : state) {
    benchmark::DoNotOptimize(distiller.distill(events));
  }
}
BENCHMARK(BM_KnowledgeDistillation)->Arg(256)->Arg(1024)->Arg(4096);

// ---- the SHAP counterpoint ------------------------------------------------

void BM_ShapExactPerSample(benchmark::State& state) {
  const auto features = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<xai::Vector> background;
  for (int i = 0; i < 16; ++i) {
    xai::Vector row(features);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  xai::ShapExplainer explainer(
      [](const xai::Vector& x) {
        double sum = 0.0;
        for (double v : x) sum += v * v;
        return xai::Vector{sum};
      },
      background);
  const xai::Vector probe(features, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explainer.explain_all_outputs(probe));
  }
}
BENCHMARK(BM_ShapExactPerSample)->Arg(5)->Arg(9)->Arg(12);

// Same workload fanned out across the EXPLORA_THREADS pool with the
// batched model path (compare against BM_ShapExactPerSample for the
// serial-vs-parallel trajectory; the JSON pre-pass below reports the
// speedup directly).
void BM_ShapExactParallel(benchmark::State& state) {
  const auto features = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<xai::Vector> background;
  for (int i = 0; i < 16; ++i) {
    xai::Vector row(features);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  ml::Mlp mlp({features, 32, 4}, ml::Activation::kTanh,
              ml::Activation::kLinear, rng);
  xai::ShapExplainer explainer(xai::batch_model(mlp), background);
  const xai::Vector probe(features, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explainer.explain_all_outputs(probe));
  }
  state.counters["evals/s"] = benchmark::Counter(
      static_cast<double>(explainer.model_evaluations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShapExactParallel)->Arg(8)->Arg(10)->Arg(12)->UseRealTime();

// ---- batched model inference ---------------------------------------------

void BM_MlpForwardPerRow(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  ml::Mlp mlp({16, 64, 64, 8}, ml::Activation::kTanh, ml::Activation::kLinear,
              rng);
  std::vector<ml::Vector> rows(batch, ml::Vector(16));
  for (auto& row : rows) {
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
  }
  ml::Vector out(8);
  for (auto _ : state) {
    for (const auto& row : rows) {
      mlp.infer(row, out);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MlpForwardPerRow)->Arg(64)->Arg(256);

void BM_MlpForwardBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  ml::Mlp mlp({16, 64, 64, 8}, ml::Activation::kTanh, ml::Activation::kLinear,
              rng);
  ml::Matrix inputs(batch, 16);
  for (auto& v : inputs.data()) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.forward_batch(inputs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MlpForwardBatch)->Arg(64)->Arg(256);

// ---- substrate hot paths ---------------------------------------------------

void BM_GnbReportWindow(benchmark::State& state) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {2, 2, 2};
  auto gnb = netsim::make_gnb(scenario);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnb->run_report_window());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 25);
}
BENCHMARK(BM_GnbReportWindow);

void BM_AutoencoderEncode(benchmark::State& state) {
  ml::Autoencoder autoencoder;
  const ml::Vector input(ml::kInputDim, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(autoencoder.encode(input));
  }
}
BENCHMARK(BM_AutoencoderEncode);

void BM_PpoActGreedy(benchmark::State& state) {
  ml::PpoAgent agent(7);
  const ml::Vector latent(ml::kLatentDim, 0.2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_greedy(latent));
  }
}
BENCHMARK(BM_PpoActGreedy);

void BM_RmrRoundTrip(benchmark::State& state) {
  class Sink final : public oran::RmrEndpoint {
   public:
    std::string_view endpoint_name() const noexcept override {
      return "sink";
    }
    void on_message(const oran::RicMessage&) override {}
  };
  oran::RmrRouter router;
  Sink sink;
  router.register_endpoint(sink);
  router.add_route(oran::MessageType::kRanControl, "*", "sink");
  common::Rng rng(8);
  const auto control = random_control(rng);
  for (auto _ : state) {
    router.send(oran::make_ran_control("bench", control, 1));
  }
}
BENCHMARK(BM_RmrRoundTrip);

// ---- wire codec (every recorded/replayed message crosses this) ------------

void BM_WireEncodeKpm(benchmark::State& state) {
  common::Rng rng(12);
  const auto message = oran::make_kpm_indication("e2term", sample_report(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oran::wire::encode_message_frame(message));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeKpm);

void BM_WireDecodeKpm(benchmark::State& state) {
  common::Rng rng(12);
  const auto wire = oran::wire::encode_message_frame(
      oran::make_kpm_indication("e2term", sample_report(rng)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oran::wire::decode_message_frame(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_WireDecodeKpm);

void BM_DecisionTreeFit(benchmark::State& state) {
  common::Rng rng(9);
  xai::Dataset data;
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    xai::Vector row(9);
    for (auto& v : row) v = rng.normal(0.0, 1.0);
    data.labels.push_back(row[0] > 0 ? (row[1] > 0 ? 0u : 1u)
                                     : (row[2] > 0 ? 2u : 3u));
    data.features.push_back(std::move(row));
  }
  for (auto _ : state) {
    xai::DecisionTreeClassifier tree;
    tree.fit(data, 4);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(512)->Arg(2048);

// ---- serial-vs-parallel JSON report ---------------------------------------
//
// Self-timed comparison of the parallel execution layer against a 1-thread
// pool (== EXPLORA_THREADS=1), printed as one JSON object so the perf
// trajectory is trackable across commits (see EXPERIMENTS.md). Also written
// to the file named by EXPLORA_BENCH_JSON when set.

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best-of-3 wall time of `fn()`.
template <typename Fn>
double time_best(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

std::string shap_speedup_case(std::size_t features, common::ThreadPool& serial,
                              common::ThreadPool& parallel) {
  common::Rng rng(5);
  std::vector<xai::Vector> background;
  for (int i = 0; i < 16; ++i) {
    xai::Vector row(features);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  ml::Mlp mlp({features, 32, 4}, ml::Activation::kTanh,
              ml::Activation::kLinear, rng);
  const xai::Vector probe(features, 0.5);

  // Each explainer binds its xai.shap.* metrics to its own registry; the
  // evals_per_explanation span then reports the exact per-sample model
  // evaluations — no dividing a raw counter by the timed-rep count.
  telemetry::Registry serial_registry;
  telemetry::Registry parallel_registry;
  std::optional<xai::ShapExplainer> serial_explainer;
  std::optional<xai::ShapExplainer> parallel_explainer;
  xai::ShapExplainer::Config config;
  {
    telemetry::ScopedRegistry scope(serial_registry);
    config.pool = &serial;
    serial_explainer.emplace(xai::batch_model(mlp), background, config);
  }
  {
    telemetry::ScopedRegistry scope(parallel_registry);
    config.pool = &parallel;
    parallel_explainer.emplace(xai::batch_model(mlp), background, config);
  }

  std::vector<xai::Vector> serial_phi;
  std::vector<xai::Vector> parallel_phi;
  const double serial_s = time_best(
      [&] { serial_phi = serial_explainer->explain_all_outputs(probe); });
  const double parallel_s = time_best(
      [&] { parallel_phi = parallel_explainer->explain_all_outputs(probe); });
  std::uint64_t evals_per_sample =
      parallel_explainer->model_evaluations() / 3;  // fallback: 3 timed reps
  if (telemetry::kCompiledIn) {
    const telemetry::MetricSnapshot& span =
        parallel_registry.snapshot().metrics.at(
            "xai.shap.evals_per_explanation");
    evals_per_sample = static_cast<std::uint64_t>(span.max);
  }

  return common::format(
      "    {{\"case\": \"shap_exact\", \"features\": {}, \"background\": {}, "
      "\"serial_seconds\": {:.6f}, \"parallel_seconds\": {:.6f}, "
      "\"speedup\": {:.2f}, \"model_evals\": {}, \"evals_per_second\": {:.0f}, "
      "\"bit_identical\": {}}}",
      features, background.size(), serial_s, parallel_s,
      serial_s / std::max(parallel_s, 1e-12), evals_per_sample,
      static_cast<double>(evals_per_sample) / std::max(parallel_s, 1e-12),
      serial_phi == parallel_phi ? "true" : "false");
}

// Cost of the fast-tier contracts on the SHAP exact path: the same workload
// timed with the runtime check level at fast (the production default) versus
// off. The acceptance bar for instrumenting hot code is overhead < 5%.
std::string contract_overhead_case(std::size_t features) {
  common::Rng rng(5);
  std::vector<xai::Vector> background;
  for (int i = 0; i < 16; ++i) {
    xai::Vector row(features);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  ml::Mlp mlp({features, 32, 4}, ml::Activation::kTanh,
              ml::Activation::kLinear, rng);
  xai::ShapExplainer explainer(xai::batch_model(mlp), background);
  const xai::Vector probe(features, 0.5);

  double fast_s = 0.0;
  {
    contracts::ScopedCheckLevel fast(contracts::CheckLevel::kFast);
    fast_s = time_best([&] {
      benchmark::DoNotOptimize(explainer.explain_all_outputs(probe));
    });
  }
  double off_s = 0.0;
  {
    contracts::ScopedCheckLevel off(contracts::CheckLevel::kOff);
    off_s = time_best([&] {
      benchmark::DoNotOptimize(explainer.explain_all_outputs(probe));
    });
  }

  const double overhead_pct =
      (fast_s / std::max(off_s, 1e-12) - 1.0) * 100.0;
  return common::format(
      "    {{\"case\": \"contract_overhead\", \"features\": {}, "
      "\"checks_fast_seconds\": {:.6f}, \"checks_off_seconds\": {:.6f}, "
      "\"overhead_percent\": {:.2f}}}",
      features, fast_s, off_s, overhead_pct);
}

// Cost of compiled-in telemetry on the closed-loop hot path: the gNB
// report window (per-TTI scheduler grants + per-UE KPI histograms) timed
// with recording enabled versus runtime-disabled. The acceptance bar from
// the telemetry design is overhead <= 2%; the JSON row tracks it across
// commits. With EXPLORA_TELEMETRY=OFF both timings take the compiled-out
// (empty-body) path and the overhead reads as noise around zero.
std::string telemetry_overhead_case() {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {2, 2, 2};
  telemetry::Registry registry;
  // The scenario is deterministic, so a fresh gNB re-runs the exact same
  // simulated workload — both arms time identical work instead of whatever
  // traffic state the previous arm left behind.
  auto measure = [&](bool recording) {
    std::unique_ptr<netsim::Gnb> gnb;
    {
      telemetry::ScopedRegistry scope(registry);
      gnb = netsim::make_gnb(scenario);
    }
    telemetry::ScopedEnabled gate(recording);
    const auto start = Clock::now();
    for (int i = 0; i < 200; ++i) {
      benchmark::DoNotOptimize(gnb->run_report_window());
    }
    return seconds_since(start);
  };
  // Interleave the arms (warm-up round discarded) so machine-load drift
  // hits both equally, and keep the per-arm minimum as the noise floor.
  (void)measure(true);
  (void)measure(false);
  double enabled_s = 1e300;
  double disabled_s = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    enabled_s = std::min(enabled_s, measure(true));
    disabled_s = std::min(disabled_s, measure(false));
  }
  const double overhead_pct =
      (enabled_s / std::max(disabled_s, 1e-12) - 1.0) * 100.0;
  return common::format(
      "    {{\"case\": \"telemetry_overhead\", \"compiled_in\": {}, "
      "\"windows\": 200, \"enabled_seconds\": {:.6f}, "
      "\"disabled_seconds\": {:.6f}, \"overhead_percent\": {:.2f}}}",
      telemetry::kCompiledIn ? "true" : "false", enabled_s, disabled_s,
      overhead_pct);
}

std::string forward_batch_case(std::size_t batch) {
  common::Rng rng(6);
  ml::Mlp mlp({16, 64, 64, 8}, ml::Activation::kTanh, ml::Activation::kLinear,
              rng);
  ml::Matrix inputs(batch, 16);
  for (auto& v : inputs.data()) v = rng.uniform(-1.0, 1.0);

  ml::Vector out(8);
  const double per_row_s = time_best([&] {
    for (std::size_t r = 0; r < batch; ++r) {
      mlp.infer(inputs.data().subspan(r * 16, 16), out);
      benchmark::DoNotOptimize(out);
    }
  });
  ml::Matrix outputs;
  const double batched_s =
      time_best([&] { outputs = mlp.forward_batch(inputs); });
  benchmark::DoNotOptimize(outputs);

  return common::format(
      "    {{\"case\": \"forward_batch\", \"batch\": {}, "
      "\"per_row_seconds\": {:.6f}, \"batched_seconds\": {:.6f}, "
      "\"speedup\": {:.2f}, \"rows_per_second\": {:.0f}}}",
      batch, per_row_s, batched_s,
      per_row_s / std::max(batched_s, 1e-12),
      static_cast<double>(batch) / std::max(batched_s, 1e-12));
}

// Raw blocked-GEMM throughput: the same multiply_batch timed with the
// scalar kernel forced versus the dispatched backend (AVX2/NEON when
// compiled in and supported). The two outputs must be byte-identical —
// that is the SIMD design's contract (DESIGN.md §10), and bit_identical
// is the row's pass/fail bit; speedup tracks the vectorization win.
std::string gemm_flops_case(std::size_t out, std::size_t in,
                            std::size_t batch) {
  common::Rng rng(11);
  ml::Matrix weights(out, in);
  ml::Matrix inputs(batch, in);
  for (auto& v : weights.data()) v = rng.uniform(-1.0, 1.0);
  for (auto& v : inputs.data()) v = rng.uniform(-1.0, 1.0);

  ml::Matrix scalar_out(batch, out);
  ml::Matrix simd_out(batch, out);
  double scalar_s = 0.0;
  {
    ml::gemm::ScopedBackend forced(ml::gemm::Backend::kScalar);
    scalar_s =
        time_best([&] { weights.multiply_batch(inputs, scalar_out); });
  }
  const ml::gemm::Backend backend = ml::gemm::active_backend();
  const double simd_s =
      time_best([&] { weights.multiply_batch(inputs, simd_out); });

  const double flops = 2.0 * static_cast<double>(out) *
                       static_cast<double>(in) * static_cast<double>(batch);
  const bool identical =
      scalar_out.data().size() == simd_out.data().size() &&
      std::memcmp(scalar_out.data().data(), simd_out.data().data(),
                  scalar_out.data().size() * sizeof(double)) == 0;
  return common::format(
      "    {{\"case\": \"gemm_flops\", \"out\": {}, \"in\": {}, "
      "\"batch\": {}, \"backend\": \"{}\", \"scalar_seconds\": {:.6f}, "
      "\"simd_seconds\": {:.6f}, \"speedup\": {:.2f}, "
      "\"gflops\": {:.2f}, \"bit_identical\": {}}}",
      out, in, batch, ml::gemm::to_string(backend), scalar_s, simd_s,
      scalar_s / std::max(simd_s, 1e-12),
      flops / std::max(simd_s, 1e-12) / 1e9, identical ? "true" : "false");
}

// End-to-end fused forward pass (GEMM + bias + activation epilogue) of the
// bench MLP, scalar versus dispatched backend. This is the per-decision
// inference latency the RIC budget cares about. Two activation flavors:
// relu (DQN online net / autoencoder hidden layers) is GEMM-bound and
// shows the full vectorization win; tanh (PPO/A2C actors) spends most of
// its time in std::tanh, which stays bitwise-pinned libm on every backend,
// so its speedup is structurally capped by Amdahl.
std::string forward_batch_latency_case(std::size_t batch,
                                       ml::Activation hidden) {
  common::Rng rng(6);
  ml::Mlp mlp({16, 64, 64, 8}, hidden, ml::Activation::kLinear, rng);
  ml::Matrix inputs(batch, 16);
  for (auto& v : inputs.data()) v = rng.uniform(-1.0, 1.0);

  ml::Matrix scalar_out;
  ml::Matrix simd_out;
  double scalar_s = 0.0;
  {
    ml::gemm::ScopedBackend forced(ml::gemm::Backend::kScalar);
    scalar_s = time_best([&] { scalar_out = mlp.forward_batch(inputs); });
  }
  const ml::gemm::Backend backend = ml::gemm::active_backend();
  const double simd_s =
      time_best([&] { simd_out = mlp.forward_batch(inputs); });

  const bool identical =
      scalar_out.data().size() == simd_out.data().size() &&
      std::memcmp(scalar_out.data().data(), simd_out.data().data(),
                  scalar_out.data().size() * sizeof(double)) == 0;
  return common::format(
      "    {{\"case\": \"forward_batch_latency\", \"batch\": {}, "
      "\"activation\": \"{}\", \"backend\": \"{}\", "
      "\"scalar_seconds\": {:.6f}, \"simd_seconds\": {:.6f}, "
      "\"speedup\": {:.2f}, \"rows_per_second\": {:.0f}, "
      "\"bit_identical\": {}}}",
      batch, hidden == ml::Activation::kRelu ? "relu" : "tanh",
      ml::gemm::to_string(backend), scalar_s, simd_s,
      scalar_s / std::max(simd_s, 1e-12),
      static_cast<double>(batch) / std::max(simd_s, 1e-12),
      identical ? "true" : "false");
}

// Wire codec throughput on a realistic mixed message stream (the stream a
// TraceRecorder persists): encode and strict bounds-checked decode,
// messages and bytes per second. This is the per-message cost record/
// replay adds on top of routing.
std::string wire_codec_case(std::size_t messages) {
  common::Rng rng(12);
  std::vector<oran::RicMessage> stream;
  std::size_t total_bytes = 0;
  for (std::size_t i = 0; i < messages; ++i) {
    switch (i % 3) {
      case 0:
        stream.push_back(oran::make_kpm_indication("e2term",
                                                   sample_report(rng)));
        break;
      case 1:
        stream.push_back(oran::make_ran_control("drl_xapp",
                                                random_control(rng), i, i));
        break;
      default:
        stream.push_back(oran::make_ran_control_ack("e2term", i));
    }
  }
  std::vector<std::vector<std::uint8_t>> frames;
  const double encode_s = time_best([&] {
    frames.clear();
    total_bytes = 0;
    for (const auto& message : stream) {
      frames.push_back(oran::wire::encode_message_frame(message));
      total_bytes += frames.back().size();
    }
  });
  const double decode_s = time_best([&] {
    for (const auto& frame : frames) {
      benchmark::DoNotOptimize(oran::wire::decode_message_frame(frame));
    }
  });
  return common::format(
      "    {{\"case\": \"wire_codec\", \"messages\": {}, \"bytes\": {}, "
      "\"encode_seconds\": {:.6f}, \"decode_seconds\": {:.6f}, "
      "\"encode_msgs_per_second\": {:.0f}, "
      "\"decode_msgs_per_second\": {:.0f}}}",
      messages, total_bytes, encode_s, decode_s,
      static_cast<double>(messages) / std::max(encode_s, 1e-12),
      static_cast<double>(messages) / std::max(decode_s, 1e-12));
}

// Record/replay throughput: serialize a recorded delivery stream to
// `.etrace` bytes, parse it back, and re-deliver every frame into a sink
// endpoint — the full offline-explanation transport path, no xApp logic.
std::string trace_replay_case(std::size_t frames) {
  class Sink final : public oran::RmrEndpoint {
   public:
    std::string_view endpoint_name() const noexcept override {
      return "explora_xapp";
    }
    void on_message(const oran::RicMessage&) override { ++count; }
    std::size_t count = 0;
  };
  common::Rng rng(13);
  oran::TraceRecorder recorder("explora_xapp");
  std::int64_t tick = 0;
  recorder.set_tick_source([&tick] { return tick; });
  for (std::size_t i = 0; i < frames; ++i) {
    tick += 25;
    recorder.on_deliver(oran::make_kpm_indication("e2term",
                                                  sample_report(rng)),
                        "explora_xapp", i + 1);
  }
  std::vector<std::uint8_t> bytes;
  const double serialize_s = time_best([&] { bytes = recorder.serialize(); });
  std::optional<oran::TraceReplaySource> source;
  const double parse_s =
      time_best([&] { source.emplace(oran::TraceReplaySource::parse(bytes)); });
  Sink sink;
  const double replay_s = time_best(
      [&] { benchmark::DoNotOptimize(source->replay_into(sink, "explora_xapp")); });
  return common::format(
      "    {{\"case\": \"trace_replay\", \"frames\": {}, \"bytes\": {}, "
      "\"serialize_seconds\": {:.6f}, \"parse_seconds\": {:.6f}, "
      "\"replay_seconds\": {:.6f}, \"replay_frames_per_second\": {:.0f}}}",
      frames, bytes.size(), serialize_s, parse_s, replay_s,
      static_cast<double>(frames) / std::max(replay_s, 1e-12));
}

void report_parallel_speedup() {
  const std::size_t threads = common::configured_threads();
  common::ThreadPool serial(1);
  common::ThreadPool parallel(threads);

  std::string json = "{\n  \"bench\": \"parallel_speedup\",\n";
  json += common::format("  \"threads\": {},\n  \"cases\": [\n", threads);
  json += shap_speedup_case(8, serial, parallel) + ",\n";
  json += shap_speedup_case(10, serial, parallel) + ",\n";
  json += shap_speedup_case(12, serial, parallel) + ",\n";
  json += forward_batch_case(64) + ",\n";
  json += forward_batch_case(256) + ",\n";
  json += gemm_flops_case(64, 64, 256) + ",\n";
  json += gemm_flops_case(64, 64, 4096) + ",\n";
  json += forward_batch_latency_case(256, ml::Activation::kRelu) + ",\n";
  json += forward_batch_latency_case(4096, ml::Activation::kRelu) + ",\n";
  json += forward_batch_latency_case(256, ml::Activation::kTanh) + ",\n";
  json += forward_batch_latency_case(4096, ml::Activation::kTanh) + ",\n";
  json += wire_codec_case(3000) + ",\n";
  json += trace_replay_case(3000) + ",\n";
  json += contract_overhead_case(10) + ",\n";
  json += telemetry_overhead_case() + "\n";
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (const char* path = std::getenv("EXPLORA_BENCH_JSON");
      path != nullptr && *path != '\0') {
    if (std::FILE* file = std::fopen(path, "w")) {
      std::fputs(json.c_str(), file);
      std::fclose(file);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  report_parallel_speedup();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
