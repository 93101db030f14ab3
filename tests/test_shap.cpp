// Tests for the SHAP explainer (xai/shap): the Shapley axioms on models
// with known closed-form attributions.
#include "xai/shap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "ml/nn.hpp"

namespace explora::xai {
namespace {

/// A linear model f(x) = w . x has exact Shapley values
/// phi_i = w_i * (x_i - E[background_i]).
ModelFn linear_model(Vector weights) {
  return [weights = std::move(weights)](const Vector& x) {
    double y = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) y += weights[i] * x[i];
    return Vector{y};
  };
}

std::vector<Vector> random_background(std::size_t n, std::size_t dims,
                                      std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Vector> rows;
  for (std::size_t i = 0; i < n; ++i) {
    Vector row(dims);
    for (double& v : row) v = rng.uniform(-1.0, 1.0);
    rows.push_back(std::move(row));
  }
  return rows;
}

/// xai.shap.model_evals in the active registry.
std::uint64_t shap_model_evals() {
  return telemetry::Scope("xai.shap").counter("model_evals").value();
}

Vector background_mean(const std::vector<Vector>& background) {
  Vector mean(background.front().size(), 0.0);
  for (const auto& row : background) {
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += row[i];
  }
  for (double& v : mean) v /= static_cast<double>(background.size());
  return mean;
}

TEST(Shap, ExactLinearModelAttributions) {
  const Vector weights{2.0, -1.0, 0.5};
  auto background = random_background(16, 3, 1);
  const Vector mean = background_mean(background);
  ShapExplainer explainer(linear_model(weights), background);

  const Vector x{1.0, 1.0, 1.0};
  const Vector phi = explainer.explain(x, 0);
  ASSERT_EQ(phi.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(phi[i], weights[i] * (x[i] - mean[i]), 1e-9);
  }
}

TEST(Shap, EfficiencyAxiom) {
  // sum_i phi_i = f(x) - E[f(background)] must hold exactly.
  auto model = [](const Vector& x) {
    return Vector{x[0] * x[1] + 3.0 * x[2] + std::sin(x[0])};
  };
  auto background = random_background(8, 3, 3);
  ShapExplainer explainer(model, background);

  const Vector x{0.7, -0.4, 0.9};
  const Vector phi = explainer.explain(x, 0);
  const double base = explainer.base_values()[0];
  const double fx = model(x)[0];
  double total = base;
  for (double p : phi) total += p;
  EXPECT_NEAR(total, fx, 1e-9);
}

TEST(Shap, AuditLevelAdditivityCheckHolds) {
  // At audit level the explainer itself verifies the efficiency axiom
  // (sum(phi) + base == f(x) per output) inside explain_exact. A throwing
  // handler turns any violation into a test failure, so a clean pass means
  // the internal EXPLORA_AUDIT_MSG held for every output.
  contracts::ScopedCheckLevel audit(contracts::CheckLevel::kAudit);
  struct Thrower {
    [[noreturn]] static void handle(const contracts::ContractViolation& v) {
      throw std::runtime_error(v.message);
    }
  };
  contracts::ScopedContractHandler guard(&Thrower::handle);

  auto model = [](const Vector& x) {
    return Vector{x[0] * x[1] - x[2], std::cos(x[0]) + 2.0 * x[2]};
  };
  auto background = random_background(8, 3, 11);
  ShapExplainer explainer(model, background);
  EXPECT_NO_THROW({
    const Vector phi0 = explainer.explain({0.3, -1.2, 0.5}, 0);
    const Vector phi1 = explainer.explain({0.3, -1.2, 0.5}, 1);
    EXPECT_EQ(phi0.size(), 3u);
    EXPECT_EQ(phi1.size(), 3u);
  });
}

TEST(Shap, DummyFeatureGetsZero) {
  // Feature 2 never affects the output -> its Shapley value is 0.
  auto model = [](const Vector& x) { return Vector{x[0] + 2.0 * x[1]}; };
  auto background = random_background(8, 3, 5);
  ShapExplainer explainer(model, background);
  const Vector phi = explainer.explain({1.0, 2.0, 100.0}, 0);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
}

TEST(Shap, SymmetryAxiom) {
  // f = x0 + x1, identical inputs and identical background marginals ->
  // equal attributions.
  auto model = [](const Vector& x) { return Vector{x[0] + x[1]}; };
  std::vector<Vector> background{{0.0, 0.0}, {1.0, 1.0}, {0.5, 0.5}};
  ShapExplainer explainer(model, background);
  const Vector phi = explainer.explain({0.8, 0.8}, 0);
  EXPECT_NEAR(phi[0], phi[1], 1e-12);
}

TEST(Shap, MultiOutputExplanations) {
  auto model = [](const Vector& x) {
    return Vector{x[0], -x[0], x[1]};
  };
  auto background = random_background(4, 2, 7);
  ShapExplainer explainer(model, background);
  const auto all = explainer.explain_all_outputs({1.0, 2.0});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_NEAR(all[0][0], -all[1][0], 1e-12);  // outputs 0/1 mirror on x0
  EXPECT_NEAR(all[0][1], 0.0, 1e-12);         // output 0 ignores x1
}

TEST(Shap, SamplingApproximatesExact) {
  auto model = [](const Vector& x) {
    return Vector{x[0] * x[1] - 0.5 * x[2] + x[3]};
  };
  auto background = random_background(8, 4, 9);

  ShapExplainer exact(model, background);
  const Vector x{0.2, -0.8, 0.5, 1.0};
  const Vector phi_exact = exact.explain(x, 0);

  ShapExplainer::Config config;
  config.mode = ShapExplainer::Mode::kSampling;
  config.permutations = 400;
  ShapExplainer sampler(model, background, config);
  const Vector phi_sampled = sampler.explain(x, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(phi_sampled[i], phi_exact[i], 0.12);
  }
}

TEST(Shap, BaseValuesAreCachedAfterFirstCall) {
  const Vector weights{1.0, 2.0};
  auto background = random_background(8, 2, 3);
  const Vector mean = background_mean(background);
  ShapExplainer explainer(linear_model(weights), background);

  const Vector first = explainer.base_values();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_NEAR(first[0], weights[0] * mean[0] + weights[1] * mean[1], 1e-9);
  const std::uint64_t evals = explainer.model_evaluations();
  EXPECT_EQ(evals, 8u);

  // Second call serves the guarded cache: bit-identical, no model calls.
  const Vector second = explainer.base_values();
  EXPECT_EQ(first, second);
  EXPECT_EQ(explainer.model_evaluations(), evals);
}

TEST(Shap, ExactEvaluationCountIsExponential) {
  auto model = [](const Vector& x) { return Vector{x[0]}; };
  auto background = random_background(4, 5, 11);
  ShapExplainer explainer(model, background);
  (void)explainer.explain(Vector(5, 0.3), 0);
  // 2^5 coalitions x 4 background rows = 128 model evaluations (this is
  // exactly the cost driver Fig. 4 measures).
  EXPECT_EQ(explainer.model_evaluations(), 128u);
  explainer.reset_evaluation_counter();
  EXPECT_EQ(explainer.model_evaluations(), 0u);
}

TEST(Shap, BackgroundSubsamplingCapsCost) {
  auto model = [](const Vector& x) { return Vector{x[0]}; };
  ShapExplainer::Config config;
  config.max_background = 4;
  ShapExplainer explainer(model, random_background(100, 3, 13), config);
  (void)explainer.explain(Vector(3, 0.0), 0);
  EXPECT_EQ(explainer.model_evaluations(), (1u << 3) * 4u);
}

TEST(Shap, SamplingIsDeterministicPerSeed) {
  auto model = [](const Vector& x) { return Vector{x[0] * x[1]}; };
  auto background = random_background(6, 2, 15);
  ShapExplainer::Config config;
  config.mode = ShapExplainer::Mode::kSampling;
  config.permutations = 32;
  config.seed = 1234;
  ShapExplainer a(model, background, config);
  ShapExplainer b(model, background, config);
  EXPECT_EQ(a.explain({0.5, 0.5}, 0), b.explain({0.5, 0.5}, 0));
}

TEST(Factorial, KnownValues) {
  EXPECT_DOUBLE_EQ(factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(factorial(1), 1.0);
  EXPECT_DOUBLE_EQ(factorial(5), 120.0);
  EXPECT_DOUBLE_EQ(factorial(10), 3628800.0);
}

TEST(Factorial, CoversTheFullSamplingFeatureRange) {
  // explain_sampling accepts up to 31 features; the table must not
  // silently saturate below that.
  EXPECT_DOUBLE_EQ(factorial(21), 21.0 * factorial(20));
  EXPECT_DOUBLE_EQ(factorial(31), 31.0 * factorial(30));
  EXPECT_GT(factorial(31), factorial(30));
}

TEST(Shap, ShapleyWeightsSumToOneOverAllCoalitions) {
  // sum over k of C(N-1, k) * k!(N-1-k)!/N! = 1 for any feature.
  for (std::size_t n : {3u, 9u, 12u}) {
    double total = 0.0;
    double binom = 1.0;  // C(n-1, k), updated incrementally
    for (std::size_t k = 0; k < n; ++k) {
      total += binom * shapley_weight(n, k);
      binom = binom * static_cast<double>(n - 1 - k) /
              static_cast<double>(k + 1);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

// ---- parallel execution (the determinism contract) ------------------------

TEST(Shap, ParallelExactMatchesSerialBitwise) {
  auto model = [](const Vector& x) {
    return Vector{x[0] * x[1] + std::sin(x[2]) - 0.3 * x[3] * x[4],
                  x[2] * x[4]};
  };
  auto background = random_background(16, 5, 21);
  const Vector x{0.3, -0.7, 0.9, 0.1, -0.2};

  // The caller adds the eval tally once the fan-out returns: on any pool
  // the counter, model_evaluations() and 2^N x |background| agree.
  const std::uint64_t analytic = (std::uint64_t{1} << x.size()) * 16;
  auto explain_on = [&](common::ThreadPool& pool) {
    telemetry::ScopedRegistry scoped;
    ShapExplainer::Config config;
    config.pool = &pool;
    ShapExplainer explainer(model, background, config);
    auto phi = explainer.explain_all_outputs(x);
    EXPECT_EQ(explainer.model_evaluations(), analytic);
    EXPECT_EQ(shap_model_evals(), analytic);
    return phi;
  };
  common::ThreadPool serial_pool(1);
  common::ThreadPool parallel_pool(8);
  const auto serial_phi = explain_on(serial_pool);
  const auto parallel_phi = explain_on(parallel_pool);
  ASSERT_EQ(serial_phi.size(), parallel_phi.size());
  for (std::size_t o = 0; o < serial_phi.size(); ++o) {
    EXPECT_EQ(serial_phi[o], parallel_phi[o]);  // bit-identical
  }
}

TEST(Shap, ParallelSamplingMatchesSerialBitwise) {
  auto model = [](const Vector& x) {
    return Vector{x[0] * x[1] - 0.5 * x[2] + x[3]};
  };
  auto background = random_background(8, 4, 23);
  const Vector x{0.2, -0.8, 0.5, 1.0};

  // P x (N + 1) x |background| evaluations, tallied by the caller.
  const std::uint64_t analytic = 64 * (x.size() + 1) * 8;
  auto explain_on = [&](common::ThreadPool& pool) {
    telemetry::ScopedRegistry scoped;
    ShapExplainer::Config config;
    config.mode = ShapExplainer::Mode::kSampling;
    config.permutations = 64;
    config.seed = 99;
    config.pool = &pool;
    ShapExplainer explainer(model, background, config);
    Vector phi = explainer.explain(x, 0);
    EXPECT_EQ(explainer.model_evaluations(), analytic);
    EXPECT_EQ(shap_model_evals(), analytic);
    return phi;
  };
  common::ThreadPool serial_pool(1);
  common::ThreadPool two_pool(2);
  common::ThreadPool eight_pool(8);
  const Vector serial_phi = explain_on(serial_pool);
  for (common::ThreadPool* pool : {&two_pool, &eight_pool}) {
    EXPECT_EQ(serial_phi, explain_on(*pool));  // bit-identical
  }
}

TEST(Shap, BatchedModelMatchesPerRowModel) {
  // The batched entry point must agree with the per-row one when both
  // compute the same function.
  auto per_row = [](const Vector& x) {
    return Vector{2.0 * x[0] - x[1], x[1] * x[2]};
  };
  BatchModelFn batched = [&](const std::vector<Vector>& probes) {
    std::vector<Vector> out;
    for (const auto& probe : probes) out.push_back(per_row(probe));
    return out;
  };
  auto background = random_background(8, 3, 25);
  const Vector x{0.4, -0.6, 1.1};

  ShapExplainer a(ModelFn(per_row), background);
  ShapExplainer b(std::move(batched), background);
  const auto phi_a = a.explain_all_outputs(x);
  const auto phi_b = b.explain_all_outputs(x);
  ASSERT_EQ(phi_a.size(), phi_b.size());
  for (std::size_t o = 0; o < phi_a.size(); ++o) {
    EXPECT_EQ(phi_a[o], phi_b[o]);
  }
  EXPECT_EQ(a.model_evaluations(), b.model_evaluations());
}

TEST(Shap, MlpBatchModelMatchesInfer) {
  // batch_model(mlp) explains exactly the function mlp.infer computes.
  common::Rng rng(31);
  ml::Mlp mlp({4, 16, 2}, ml::Activation::kTanh, ml::Activation::kLinear,
              rng);
  auto per_row = [&mlp](const Vector& x) {
    Vector out(mlp.out_size());
    mlp.infer(x, out);
    return out;
  };
  auto background = random_background(8, 4, 27);
  const Vector x{0.1, 0.2, -0.3, 0.4};

  ShapExplainer reference(per_row, background);
  ShapExplainer batched(batch_model(mlp), background);
  const auto phi_a = reference.explain_all_outputs(x);
  const auto phi_b = batched.explain_all_outputs(x);
  ASSERT_EQ(phi_a.size(), phi_b.size());
  for (std::size_t o = 0; o < phi_a.size(); ++o) {
    EXPECT_EQ(phi_a[o], phi_b[o]);
  }
}

}  // namespace
}  // namespace explora::xai
