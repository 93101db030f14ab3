// google-benchmark microbenchmarks for the hot paths: the near-real-time
// budget of the RIC (10 ms - 1 s loops) is the paper's "lightweight for
// real-time operation" claim — these benches quantify every per-decision
// cost EXPLORA adds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "ml/nn.hpp"
#include "explora/distill.hpp"
#include "explora/edbr.hpp"
#include "explora/graph.hpp"
#include "explora/transitions.hpp"
#include "ml/agent.hpp"
#include "ml/autoencoder.hpp"
#include "ml/gemm.hpp"
#include "ml/ppo.hpp"
#include "netsim/channel.hpp"
#include "netsim/gnb.hpp"
#include "netsim/scenario.hpp"
#include "oran/rmr.hpp"
#include "oran/wire.hpp"
#include "xai/agent_model.hpp"
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
// serial-vs-parallel trajectory).
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

// One dense layer of the HT-shaped PPO actor (9 -> 64 -> 64 -> 34) through
// the dispatched GEMM kernel on its stored weight panels: batch 1 is the
// decide path, batch 64 a SHAP probe chunk.
void BM_GemmLayer(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  const auto epilogue = static_cast<ml::gemm::Epilogue>(state.range(3));
  common::Rng rng(8);
  std::vector<double> w(out * in);
  std::vector<double> x(batch * in);
  std::vector<double> bias(out);
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  for (auto& v : bias) v = rng.normal(0.0, 0.1);
  common::AlignedVector<double> panels(ml::gemm::panel_size(out, in));
  ml::gemm::pack(w.data(), out, in, panels.data());
  std::vector<double> y(batch * out);
  state.SetLabel(ml::gemm::to_string(ml::gemm::active_backend()));
  for (auto _ : state) {
    ml::gemm::run({panels.data(), out, in}, x.data(), batch, y.data(),
                  bias.data(), epilogue);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * out));
}
BENCHMARK(BM_GemmLayer)
    ->ArgNames({"in", "out", "batch", "epilogue"})
    ->ArgsProduct({{9}, {64}, {1, 64}, {1, 3}})
    ->ArgsProduct({{64}, {64, 34}, {1, 64}, {1, 3}});

// Packing one row-major layer into the panel layout: what a model load
// pays per layer, once.
void BM_GemmPack(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  common::Rng rng(8);
  std::vector<double> w(out * in);
  for (auto& v : w) v = rng.normal(0.0, 0.3);
  common::AlignedVector<double> panels(ml::gemm::panel_size(out, in));
  for (auto _ : state) {
    ml::gemm::pack(w.data(), out, in, panels.data());
    benchmark::DoNotOptimize(panels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out * in));
}
BENCHMARK(BM_GemmPack)
    ->ArgNames({"in", "out"})
    ->ArgsProduct({{64}, {64, 34}});

// The SHAP model call on one 64-row probe chunk: the HT-shaped PPO actor
// plus the chosen-component probabilities of every head.
void BM_ShapProbeChunk(benchmark::State& state) {
  const ml::PpoAgent agent(7);
  common::Rng rng(9);
  ml::Matrix probes(64, ml::kLatentDim);
  for (auto& v : probes.data()) v = rng.normal(0.0, 1.0);
  const auto chosen =
      agent.act_greedy(probes.data().subspan(0, ml::kLatentDim)).action;
  const auto model = xai::head_probability_model(agent, chosen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model(probes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(BM_ShapProbeChunk);

// The chosen-component softmax of one 64-row probe chunk of PPO logits
// (64 x 34: the probe path's share of BM_ShapProbeChunk).
void BM_SoftmaxChosen(benchmark::State& state) {
  const std::size_t cols = ml::head_offsets()[ml::kNumHeads];
  common::Rng rng(9);
  ml::Matrix logits(64, cols);
  for (auto& v : logits.data()) v = rng.normal(0.0, 2.0);
  ml::AgentAction chosen;
  chosen.prb_choice = 3;
  chosen.sched_choice = {0, 1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::softmax_chosen(logits, chosen, "PPO"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(BM_SoftmaxChosen);

// One SHAP table (every head's attribution) at loop_serve's serving shape:
// PpoAgent, 4 background rows, 8 permutations, a one-thread pool. The
// exact table evaluates all 2^9 coalitions; the sampled one is built the
// way ExplainService builds it after the exact table of the same
// snapshot: from that table's coalition values.
void BM_ShapTable(benchmark::State& state, xai::ShapExplainer::Mode mode) {
  const ml::PpoAgent agent(7);
  common::Rng rng(11);
  std::vector<ml::Vector> background(4, ml::Vector(ml::kLatentDim));
  for (auto& row : background) {
    for (auto& v : row) v = rng.normal(0.0, 1.0);
  }
  ml::Vector x(ml::kLatentDim);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  const auto chosen = agent.act_greedy(x).action;
  common::ThreadPool one(1);
  xai::ShapExplainer::Config config;
  config.permutations = 8;
  config.max_background = 4;
  config.pool = &one;
  config.mode = xai::ShapExplainer::Mode::kExact;
  xai::ShapExplainer exact(xai::head_probability_model(agent, chosen),
                           background, config);
  config.mode = xai::ShapExplainer::Mode::kSampling;
  xai::ShapExplainer sampled(xai::head_probability_model(agent, chosen),
                             background, config);
  const ml::Matrix values = exact.coalition_table(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mode == xai::ShapExplainer::Mode::kExact
                                 ? exact.explain_all_outputs(x)
                                 : sampled.explain_all_outputs(x, values));
  }
}
BENCHMARK_CAPTURE(BM_ShapTable, exact, xai::ShapExplainer::Mode::kExact)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ShapTable, sampled, xai::ShapExplainer::Mode::kSampling)
    ->Unit(benchmark::kMicrosecond);

// ---- substrate hot paths ---------------------------------------------------

// One 25-TTI report window with the same scheduler policy on every slice,
// so per-policy grant cost shows side by side. The split is the gNB's
// default, {18, 15, 17}, which is a catalogue entry.
// Link adaptation: SINR-to-CQI over SINRs drawn like the channel's (a
// fresh UE at the scenario's distances, shadowing and fading included), so
// the CQI varies from call to call the way it does across UEs and blocks.
void BM_SinrToCqi(benchmark::State& state) {
  common::Rng rng(20);
  std::vector<double> sinrs(4096);
  for (std::size_t i = 0; i < sinrs.size(); ++i) {
    const netsim::UeChannel channel(rng.uniform(1000.0, 2200.0),
                                    netsim::ChannelConfig{}, rng.fork(i));
    sinrs[i] = channel.sinr_db();
  }
  for (auto _ : state) {
    std::uint32_t sum = 0;
    for (const double sinr : sinrs) sum += netsim::sinr_to_cqi(sinr);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sinrs.size()));
}
BENCHMARK(BM_SinrToCqi);

// One TTI of channel state for a 6-UE cell, as Gnb::run_tti advances it:
// one UeChannel::advance_all pass draws every UE's shadowing (and fading
// at block boundaries) in SIMD lanes and re-derives CQI and bytes/PRB.
void BM_UeChannelAdvance(benchmark::State& state) {
  common::Rng rng(21);
  std::vector<netsim::UeChannel> channels;
  for (std::uint64_t ue = 0; ue < 6; ++ue) {
    channels.emplace_back(rng.uniform(1000.0, 2200.0), netsim::ChannelConfig{},
                          rng.fork(ue));
  }
  std::vector<netsim::UeChannel*> cell;
  for (auto& channel : channels) cell.push_back(&channel);
  for (auto _ : state) {
    netsim::UeChannel::advance_all(cell);
    benchmark::DoNotOptimize(channels.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(channels.size()));
}
BENCHMARK(BM_UeChannelAdvance);

void BM_GnbReportWindow(benchmark::State& state) {
  const auto policy = static_cast<netsim::SchedulerPolicy>(state.range(0));
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {2, 2, 2};
  auto gnb = netsim::make_gnb(scenario);
  netsim::SlicingControl control;
  control.prbs = netsim::prb_catalog()[netsim::prb_catalog_index({18, 15, 17})];
  control.scheduling = {policy, policy, policy};
  gnb->apply_control(control);
  state.SetLabel(netsim::to_string(policy));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gnb->run_report_window());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 25);
}
BENCHMARK(BM_GnbReportWindow)
    ->ArgName("policy")
    ->Arg(static_cast<std::int64_t>(netsim::SchedulerPolicy::kRoundRobin))
    ->Arg(static_cast<std::int64_t>(netsim::SchedulerPolicy::kWaterfilling))
    ->Arg(static_cast<std::int64_t>(
        netsim::SchedulerPolicy::kProportionalFair));

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

}  // namespace

BENCHMARK_MAIN();
