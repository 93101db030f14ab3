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
#include "ml/matrix.hpp"
#include "ml/nn.hpp"
#include "ml/tanh.hpp"
#include "xai/shap.hpp"

namespace explora {
namespace {

using ml::gemm::Backend;
using ml::gemm::Epilogue;
using ml::gemm::ScopedBackend;

std::vector<Backend> simd_backends() {
  std::vector<Backend> backends;
  for (Backend b : {Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    if (ml::gemm::backend_available(b)) backends.push_back(b);
  }
  return backends;
}

/// Naive triple loop in the contract's reduction order — deliberately
/// separate from detail::scalar_kernel so the reference cannot share a
/// bug with the implementation. Its tanh is the repo's port, not the
/// host libm's, so the oracle means the same on every host.
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
      if (epilogue == Epilogue::kBiasTanh) v = ml::fdlibm_tanh(v);
      y[b * out + r] = v;
    }
  }
  return y;
}

void run_backend(Backend backend, const std::vector<double>& w,
                 std::size_t out, std::size_t in,
                 const std::vector<double>& x, std::size_t batch,
                 const std::vector<double>& bias, Epilogue epilogue,
                 std::vector<double>& y) {
  ScopedBackend forced(backend);
  ASSERT_TRUE(forced.engaged()) << ml::gemm::to_string(backend);
  ml::gemm::run(w.data(), out, in, x.data(), batch, y.data(),
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
  const double w = 1.0;
  const double x = 2.0;
  double y = 42.0;
  ml::gemm::run(&w, 1, 1, &x, 0, &y, nullptr, Epilogue::kNone);
  EXPECT_EQ(42.0, y);
  ml::gemm::run(&w, 0, 1, &x, 1, &y, nullptr, Epilogue::kNone);
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

#if !defined(__aarch64__)
  // NEON can never engage on x86; the backend must stay put.
  ScopedBackend bogus(Backend::kNeon);
  EXPECT_FALSE(bogus.engaged());
  EXPECT_EQ(before, ml::gemm::active_backend());
#endif
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
