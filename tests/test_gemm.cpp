// The blocked-GEMM byte-identity contract (DESIGN.md §10): every SIMD
// backend must reproduce the scalar kernel's output bit-for-bit on every
// shape, epilogue, and thread count. These tests force each available
// backend via ScopedBackend and compare raw bytes — no tolerances.
#include "ml/gemm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "ml/matrix.hpp"
#include "ml/nn.hpp"
#include "common/detmath.hpp"
#include "xai/shap.hpp"

namespace explora {
namespace {

using ml::gemm::Backend;
using ml::gemm::Epilogue;
using ml::gemm::ScopedBackend;

std::vector<Backend> simd_backends() {
  std::vector<Backend> backends;
  for (Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (ml::gemm::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Naive triple loop in the contract's reduction order over row-major
/// weights — deliberately separate from detail::scalar_kernel and the
/// panel layout, so the reference cannot share a bug with either. Its tanh
/// is the repo's port, not the host libm's, so the oracle means the same on
/// every host.
std::vector<double> naive_reference(const std::vector<double>& w,
                                    std::size_t out, std::size_t in,
                                    const std::vector<double>& x,
                                    std::size_t batch,
                                    const std::vector<double>& bias,
                                    Epilogue epilogue) {
  std::vector<double> y(batch * out, 0.0);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < out; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < in; ++c) {
        acc += w[r * in + c] * x[b * in + c];
      }
      double v = acc;
      if (epilogue != Epilogue::kNone) v += bias[r];
      if (epilogue == Epilogue::kBiasRelu) v = v > 0.0 ? v : 0.0;
      if (epilogue == Epilogue::kBiasTanh) v = detmath::tanh(v);
      y[b * out + r] = v;
    }
  }
  return y;
}

/// Runs the kernel on `backend` with w (out x in, row-major) packed into
/// the panel layout the kernels read.
void run_backend(Backend backend, const std::vector<double>& w,
                 std::size_t out, std::size_t in,
                 const std::vector<double>& x, std::size_t batch,
                 const std::vector<double>& bias, Epilogue epilogue,
                 std::vector<double>& y) {
  ScopedBackend forced(backend);
  ASSERT_TRUE(forced.engaged()) << ml::gemm::to_string(backend);
  common::AlignedVector<double> panels(ml::gemm::panel_size(out, in));
  ml::gemm::pack(w.data(), out, in, panels.data());
  ml::gemm::run({panels.data(), out, in}, x.data(), batch, y.data(),
                epilogue == Epilogue::kNone ? nullptr : bias.data(),
                epilogue);
}

TEST(GemmBackends, ScalarMatchesNaiveReference) {
  common::Rng rng(3);
  for (const auto [out, in, batch] :
       {std::array<std::size_t, 3>{8, 8, 4}, {16, 9, 7}, {1, 1, 1},
        {64, 64, 32}}) {
    std::vector<double> w(out * in);
    std::vector<double> x(batch * in);
    std::vector<double> bias(out);
    for (auto& v : w) v = rng.normal(0.0, 1.0);
    for (auto& v : x) v = rng.normal(0.0, 1.0);
    for (auto& v : bias) v = rng.normal(0.0, 1.0);
    for (Epilogue ep : {Epilogue::kNone, Epilogue::kBias,
                        Epilogue::kBiasRelu, Epilogue::kBiasTanh}) {
      std::vector<double> y(batch * out, -7.0);
      run_backend(Backend::kScalar, w, out, in, x, batch, bias, ep, y);
      const auto expected = naive_reference(w, out, in, x, batch, bias, ep);
      ASSERT_EQ(0, std::memcmp(y.data(), expected.data(),
                               y.size() * sizeof(double)));
    }
  }
}

// Shape sweep including ragged tails (out % panel width != 0, batch %
// batch-tile != 0) and degenerate single-element shapes: every available
// SIMD backend must be byte-identical to scalar for every epilogue.
TEST(GemmBackends, SimdByteIdenticalToScalarAcrossShapes) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend compiled/supported";

  common::Rng rng(11);
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {1, 3, 2},   {7, 5, 3},    {8, 8, 8},   {9, 9, 9},
      {13, 17, 5}, {16, 16, 4}, {31, 33, 11}, {64, 64, 1}, {64, 64, 33},
      {65, 2, 9},  {3, 64, 40}, {128, 16, 6},
  };
  for (const auto& shape : shapes) {
    const std::size_t out = shape[0];
    const std::size_t in = shape[1];
    const std::size_t batch = shape[2];
    std::vector<double> w(out * in);
    std::vector<double> x(batch * in);
    std::vector<double> bias(out);
    for (auto& v : w) v = rng.normal(0.0, 1.0);
    for (auto& v : x) v = rng.normal(0.0, 1.0);
    for (auto& v : bias) v = rng.normal(0.0, 1.0);
    for (Epilogue ep : {Epilogue::kNone, Epilogue::kBias,
                        Epilogue::kBiasRelu, Epilogue::kBiasTanh}) {
      std::vector<double> scalar_y(batch * out, -7.0);
      run_backend(Backend::kScalar, w, out, in, x, batch, bias, ep,
                  scalar_y);
      for (Backend backend : backends) {
        std::vector<double> simd_y(batch * out, 3.0);
        run_backend(backend, w, out, in, x, batch, bias, ep, simd_y);
        ASSERT_EQ(0, std::memcmp(simd_y.data(), scalar_y.data(),
                                 simd_y.size() * sizeof(double)))
            << ml::gemm::to_string(backend) << " out=" << out
            << " in=" << in << " batch=" << batch;
      }
    }
  }
}

// Every (out, batch) pair up to 40 x 20 at the layer widths the agents
// use: odd panel counts, partial last panels and every batch-tail height,
// whatever tile shape a backend picks. The output buffers start with
// different fill values, so a cell a backend never writes also fails.
TEST(GemmBackends, TileBoundarySweep) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend compiled/supported";

  common::Rng rng(17);
  for (const std::size_t in : std::array<std::size_t, 3>{1, 9, 64}) {
    std::vector<double> w(40 * in);
    std::vector<double> x(20 * in);
    std::vector<double> bias(40);
    for (auto& v : w) v = rng.normal(0.0, 1.0);
    for (auto& v : x) v = rng.normal(0.0, 1.0);
    for (auto& v : bias) v = rng.normal(0.0, 1.0);
    for (std::size_t out = 1; out <= 40; ++out) {
      for (std::size_t batch = 1; batch <= 20; ++batch) {
        for (Epilogue ep : {Epilogue::kNone, Epilogue::kBias,
                            Epilogue::kBiasRelu, Epilogue::kBiasTanh}) {
          std::vector<double> scalar_y(batch * out, -7.0);
          run_backend(Backend::kScalar, w, out, in, x, batch, bias, ep,
                      scalar_y);
          for (Backend backend : backends) {
            std::vector<double> simd_y(batch * out, 3.0);
            run_backend(backend, w, out, in, x, batch, bias, ep, simd_y);
            ASSERT_EQ(0, std::memcmp(simd_y.data(), scalar_y.data(),
                                     simd_y.size() * sizeof(double)))
                << ml::gemm::to_string(backend) << " out=" << out
                << " in=" << in << " batch=" << batch
                << " epilogue=" << static_cast<int>(ep);
          }
        }
      }
    }
  }
}

TEST(GemmBackends, EmptyBatchAndZeroOutAreNoOps) {
  common::AlignedVector<double> panels(ml::gemm::panel_size(1, 1));
  const double w = 1.0;
  ml::gemm::pack(&w, 1, 1, panels.data());
  const double x = 2.0;
  double y = 42.0;
  ml::gemm::run({panels.data(), 1, 1}, &x, 0, &y, nullptr, Epilogue::kNone);
  EXPECT_EQ(42.0, y);
  ml::gemm::run({panels.data(), 0, 1}, &x, 1, &y, nullptr, Epilogue::kNone);
  EXPECT_EQ(42.0, y);
}

TEST(GemmBackends, ScopedBackendRestoresAndRejectsUnavailable) {
  const Backend before = ml::gemm::active_backend();
  {
    ScopedBackend forced(Backend::kScalar);
    EXPECT_TRUE(forced.engaged());
    EXPECT_EQ(Backend::kScalar, ml::gemm::active_backend());
  }
  EXPECT_EQ(before, ml::gemm::active_backend());

  // No backend has this number; the backend must stay put.
  ScopedBackend bogus(static_cast<Backend>(0x7f));
  EXPECT_FALSE(bogus.engaged());
  EXPECT_EQ(before, ml::gemm::active_backend());
}

TEST(GemmBackends, MatrixStorageIs64ByteAligned) {
  for (std::size_t rows : {1u, 3u, 17u}) {
    ml::Matrix m(rows, rows + 1);
    EXPECT_EQ(0u, reinterpret_cast<std::uintptr_t>(m.data().data()) %
                      common::kKernelAlignment);
  }
}

// Mlp::infer (batch 1) and Mlp::forward_batch must agree bitwise with each
// other and across backends — the fused bias+activation epilogue cannot
// drift from the scalar activation semantics.
TEST(GemmBackends, MlpForwardByteIdenticalAcrossBackends) {
  common::Rng rng(5);
  for (ml::Activation hidden :
       {ml::Activation::kTanh, ml::Activation::kRelu}) {
    ml::Mlp mlp({9, 32, 17, 4}, hidden, ml::Activation::kLinear, rng);
    ml::Matrix inputs(21, 9);
    for (auto& v : inputs.data()) v = rng.normal(0.0, 1.0);

    ml::Matrix scalar_out;
    {
      ScopedBackend forced(Backend::kScalar);
      scalar_out = mlp.forward_batch(inputs);
    }
    // Per-row infer equals the batched rows on the scalar backend.
    {
      ScopedBackend forced(Backend::kScalar);
      ml::Vector row_out(4);
      for (std::size_t r = 0; r < inputs.rows(); ++r) {
        mlp.infer(inputs.data().subspan(r * 9, 9), row_out);
        ASSERT_EQ(0, std::memcmp(row_out.data(),
                                 scalar_out.data().data() + r * 4,
                                 4 * sizeof(double)));
      }
    }
    for (Backend backend : simd_backends()) {
      ScopedBackend forced(backend);
      const ml::Matrix simd_out = mlp.forward_batch(inputs);
      ASSERT_EQ(0, std::memcmp(simd_out.data().data(),
                               scalar_out.data().data(),
                               simd_out.data().size() * sizeof(double)))
          << ml::gemm::to_string(backend);
      ml::Vector row_out(4);
      mlp.infer(inputs.data().subspan(0, 9), row_out);
      ASSERT_EQ(0, std::memcmp(row_out.data(), scalar_out.data().data(),
                               4 * sizeof(double)))
          << ml::gemm::to_string(backend);
    }
  }
}

/// Checks a one-layer tanh network's layer against the row-major weights
/// the optimizer sees through its parameter pointers: the panels' pad
/// lanes read +0, and on every backend forward() and forward_batch() are
/// byte-identical to the naive oracle and to detail::scalar_kernel on a
/// fresh pack of those weights.
void expect_layer_matches_row_major(ml::Mlp& net, const ml::Matrix& inputs) {
  const ml::DenseLayer& layer = net.layers().front();
  const std::size_t out = layer.out_size();
  const std::size_t in = layer.in_size();
  const std::size_t batch = inputs.rows();
  const ml::gemm::PanelWeights stored = layer.weights();
  for (std::size_t r = out; r < ml::gemm::panel_size(out, in) / in; ++r) {
    for (std::size_t c = 0; c < in; ++c) {
      const double pad = stored.panels[ml::gemm::panel_index(r, c, in)];
      std::uint64_t bits = 0;
      std::memcpy(&bits, &pad, sizeof bits);
      ASSERT_EQ(0U, bits) << "pad lane r=" << r << " c=" << c;
    }
  }

  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);
  ASSERT_EQ(out * in + out, params.size());
  std::vector<double> w(out * in);
  std::vector<double> bias(out);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = *params[i];
  for (std::size_t r = 0; r < out; ++r) bias[r] = *params[w.size() + r];
  const std::vector<double> x(inputs.data().begin(), inputs.data().end());
  const auto expected =
      naive_reference(w, out, in, x, batch, bias, Epilogue::kBiasTanh);

  common::AlignedVector<double> panels(ml::gemm::panel_size(out, in));
  ml::gemm::pack(w.data(), out, in, panels.data());
  std::vector<double> scalar_y(batch * out, -7.0);
  ml::gemm::detail::scalar_kernel({panels.data(), out, in}, x.data(), batch,
                                  scalar_y.data(), bias.data(),
                                  Epilogue::kBiasTanh);
  ASSERT_EQ(0, std::memcmp(scalar_y.data(), expected.data(),
                           expected.size() * sizeof(double)));

  std::vector<Backend> all = simd_backends();
  all.push_back(Backend::kScalar);
  for (Backend backend : all) {
    ScopedBackend forced(backend);
    ml::Matrix y(batch, out);
    layer.forward_batch(inputs, y);
    ASSERT_EQ(0, std::memcmp(y.data().data(), expected.data(),
                             expected.size() * sizeof(double)))
        << ml::gemm::to_string(backend);
    std::vector<double> row(out, 3.0);
    layer.forward(inputs.data().subspan(0, in), row);
    ASSERT_EQ(0, std::memcmp(row.data(), expected.data(),
                             out * sizeof(double)))
        << ml::gemm::to_string(backend);
  }
}

// A layer's one weight copy lives in the panel layout. With a partial
// last panel (34 = 4 x 8 + 2 neurons, and a single neuron), it must keep
// matching its row-major weights after construction, after an optimizer
// step written through the parameter pointers, and after a load.
TEST(GemmBackends, DenseLayerPanelsTrackRowMajorWeights) {
  for (const std::size_t out : {std::size_t{34}, std::size_t{1}}) {
    SCOPED_TRACE(out);
    common::Rng rng(23);
    ml::Mlp net({9, out}, ml::Activation::kTanh, ml::Activation::kTanh, rng);
    ml::Matrix inputs(13, 9);
    for (auto& v : inputs.data()) v = rng.normal(0.0, 1.0);
    {
      SCOPED_TRACE("constructed");
      expect_layer_matches_row_major(net, inputs);
    }

    ml::AdamOptimizer adam;
    adam.attach(net);
    std::vector<double> before(net.parameter_count());
    {
      std::vector<double*> params;
      std::vector<double*> grads;
      net.collect_parameters(params, grads);
      for (std::size_t i = 0; i < params.size(); ++i) before[i] = *params[i];
    }
    net.zero_grad();
    const ml::Vector y = net.forward(inputs.data().subspan(0, 9));
    (void)net.backward(y);
    adam.step();
    {
      std::vector<double*> params;
      std::vector<double*> grads;
      net.collect_parameters(params, grads);
      ASSERT_NE(before[0], *params[0]) << "the step moved no weight";
    }
    {
      SCOPED_TRACE("after an Adam step");
      expect_layer_matches_row_major(net, inputs);
    }

    common::Writer writer;
    net.serialize(writer);
    common::Rng other(99);
    ml::Mlp loaded({9, out}, ml::Activation::kTanh, ml::Activation::kTanh,
                   other);
    common::Reader reader(writer.buffer());
    loaded.deserialize(reader);
    {
      SCOPED_TRACE("after serialize/deserialize");
      expect_layer_matches_row_major(loaded, inputs);
    }
    common::Writer again;
    loaded.serialize(again);
    EXPECT_EQ(writer.buffer(), again.buffer());
  }
}

// SHAP attributions are identical for every (backend, thread count)
// combination — the end-to-end determinism claim behind the golden traces.
TEST(GemmBackends, ShapAttributionsInvariantAcrossBackendsAndThreads) {
  common::Rng rng(7);
  ml::Mlp mlp({9, 16, 4}, ml::Activation::kTanh, ml::Activation::kLinear,
              rng);
  std::vector<xai::Vector> background;
  for (int i = 0; i < 8; ++i) {
    xai::Vector row(9);
    for (auto& v : row) v = rng.uniform(-1.0, 1.0);
    background.push_back(std::move(row));
  }
  const xai::Vector probe(9, 0.25);

  auto explain = [&](common::ThreadPool& pool) {
    xai::ShapExplainer::Config config;
    config.pool = &pool;
    xai::ShapExplainer explainer(xai::batch_model(mlp), background, config);
    return explainer.explain_all_outputs(probe);
  };

  common::ThreadPool pool1(1);
  common::ThreadPool pool4(4);
  std::vector<xai::Vector> reference;
  {
    ScopedBackend forced(Backend::kScalar);
    reference = explain(pool1);
  }
  std::vector<Backend> all = simd_backends();
  all.push_back(Backend::kScalar);
  for (Backend backend : all) {
    ScopedBackend forced(backend);
    for (common::ThreadPool* pool : {&pool1, &pool4}) {
      const auto phi = explain(*pool);
      ASSERT_EQ(reference, phi)
          << ml::gemm::to_string(backend) << " threads="
          << (pool == &pool1 ? 1 : 4);
    }
  }
}

}  // namespace
}  // namespace explora
