#include "xai/lime.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/detmath.hpp"

namespace explora::xai {

Vector solve_linear_system(std::vector<Vector> a, Vector b) {
  const std::size_t n = b.size();
  EXPLORA_EXPECTS(a.size() == n);
  for (const auto& row : a) EXPLORA_EXPECTS(row.size() == n);

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    EXPLORA_EXPECTS(std::abs(a[col][col]) > 1e-12);
    // Eliminate below.
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      if (factor == 0.0) continue;  // det-ok: float-eq (exact-zero skip is bit-safe)
      for (std::size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  // Back substitution.
  Vector x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double acc = b[row];
    for (std::size_t k = row + 1; k < n; ++k) acc -= a[row][k] * x[k];
    x[row] = acc / a[row][row];
  }
  return x;
}

LimeExplainer::LimeExplainer(ModelFn model)
    : LimeExplainer(matrix_model(std::move(model)), Config{}) {}

LimeExplainer::LimeExplainer(ModelFn model, Config config)
    : LimeExplainer(matrix_model(std::move(model)), config) {}

LimeExplainer::LimeExplainer(MatrixModelFn model)
    : LimeExplainer(std::move(model), Config{}) {}

LimeExplainer::LimeExplainer(MatrixModelFn model, Config config)
    : model_(std::move(model)), config_(config), rng_(config.seed) {
  EXPLORA_EXPECTS(model_ != nullptr);
  EXPLORA_EXPECTS(config.samples >= 16);
  EXPLORA_EXPECTS(config.perturbation_sigma > 0.0);
  EXPLORA_EXPECTS(config.kernel_width > 0.0);
  EXPLORA_EXPECTS(config.ridge_lambda >= 0.0);
}

Vector LimeExplainer::explain(const Vector& x, std::size_t output_index) {
  const std::size_t num_features = x.size();
  EXPLORA_EXPECTS(num_features > 0);
  const std::size_t dim = num_features + 1;  // + intercept

  // Phase 1: draw every perturbation up front (the RNG stream is exactly
  // the per-sample order the old interleaved loop consumed) and hand the
  // whole probe batch to the model as one matrix — one fused GEMM sweep
  // per layer instead of `samples` single-row calls.
  ml::Matrix probes(config_.samples, num_features);
  Vector distance_sq(config_.samples, 0.0);
  for (std::size_t s = 0; s < config_.samples; ++s) {
    double* probe = probes.data().data() + s * num_features;
    for (std::size_t f = 0; f < num_features; ++f) {
      const double delta = rng_.normal(0.0, config_.perturbation_sigma);
      probe[f] = x[f] + delta;
      distance_sq[s] += delta * delta;
    }
  }
  const ml::Matrix outputs = model_(probes);
  EXPLORA_ASSERT(outputs.rows() == config_.samples);
  EXPLORA_EXPECTS(output_index < outputs.cols());
  evaluations_ += config_.samples;

  // Phase 2: accumulate the weighted normal equations in sample order —
  // (Z^T W Z + lambda I) beta = Z^T W y, each row of Z = [1, probe...] and
  // W the locality kernel — identical arithmetic to the old fused loop.
  std::vector<Vector> normal(dim, Vector(dim, 0.0));
  Vector rhs(dim, 0.0);
  double weighted_y_sum = 0.0;
  double weight_sum = 0.0;

  struct Sample {
    Vector z;       // [1, features...]
    double y;
    double weight;
  };
  std::vector<Sample> samples;
  samples.reserve(config_.samples);

  for (std::size_t s = 0; s < config_.samples; ++s) {
    const auto probe = probes.data().subspan(s * num_features, num_features);
    const double weight = detmath::exp(
        -distance_sq[s] / (config_.kernel_width * config_.kernel_width));

    Sample sample;
    sample.z.reserve(dim);
    sample.z.push_back(1.0);
    sample.z.insert(sample.z.end(), probe.begin(), probe.end());
    sample.y = outputs(s, output_index);
    sample.weight = weight;

    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t j = i; j < dim; ++j) {
        normal[i][j] += weight * sample.z[i] * sample.z[j];
      }
      rhs[i] += weight * sample.z[i] * sample.y;
    }
    weighted_y_sum += weight * sample.y;
    weight_sum += weight;
    samples.push_back(std::move(sample));
  }
  // Symmetrize and regularize (no penalty on the intercept).
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < i; ++j) normal[i][j] = normal[j][i];
    if (i > 0) normal[i][i] += config_.ridge_lambda;
  }

  const Vector beta = solve_linear_system(std::move(normal), std::move(rhs));
  intercept_ = beta[0];

  // Weighted R^2 fidelity of the surrogate.
  const double y_mean = weight_sum > 0.0 ? weighted_y_sum / weight_sum : 0.0;
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (const Sample& sample : samples) {
    double prediction = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      prediction += beta[i] * sample.z[i];
    }
    ss_res += sample.weight * (sample.y - prediction) * (sample.y - prediction);
    ss_tot += sample.weight * (sample.y - y_mean) * (sample.y - y_mean);
  }
  r2_ = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;

  return Vector(beta.begin() + 1, beta.end());
}

}  // namespace explora::xai
