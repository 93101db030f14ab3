#include "xai/shap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/contracts.hpp"
#include "ml/nn.hpp"

namespace explora::xai {

double factorial(std::size_t n) noexcept {
  static const std::array<double, 32> table = [] {
    std::array<double, 32> t{};
    t[0] = 1.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      t[i] = t[i - 1] * static_cast<double>(i);
    }
    return t;
  }();
  EXPLORA_EXPECTS(n < table.size());
  return table[n];
}

double shapley_weight(std::size_t num_features,
                      std::size_t coalition_size) noexcept {
  return factorial(coalition_size) *
         factorial(num_features - coalition_size - 1) /
         factorial(num_features);
}

MatrixModelFn batch_model(const ml::Mlp& mlp) {
  return [&mlp](const ml::Matrix& probes) { return mlp.forward_batch(probes); };
}

MatrixModelFn matrix_model(ModelFn model) {
  return [model = std::move(model)](const ml::Matrix& probes) {
    ml::Matrix outputs;
    Vector probe(probes.cols());
    for (std::size_t r = 0; r < probes.rows(); ++r) {
      const auto row = probes.data().subspan(r * probes.cols(), probes.cols());
      probe.assign(row.begin(), row.end());
      const Vector out = model(probe);
      if (r == 0) outputs = ml::Matrix(probes.rows(), out.size());
      EXPLORA_ASSERT(out.size() == outputs.cols());
      std::copy(out.begin(), out.end(),
                outputs.data().begin() +
                    static_cast<std::ptrdiff_t>(r * outputs.cols()));
    }
    return outputs;
  };
}

namespace {

/// Adapts a vector-of-rows batched model to the matrix entry point.
[[nodiscard]] MatrixModelFn wrap_row_batched(BatchModelFn model) {
  return [model = std::move(model)](const ml::Matrix& probes) {
    std::vector<Vector> rows(probes.rows());
    for (std::size_t r = 0; r < probes.rows(); ++r) {
      const auto row = probes.data().subspan(r * probes.cols(), probes.cols());
      rows[r].assign(row.begin(), row.end());
    }
    const std::vector<Vector> outputs = model(rows);
    EXPLORA_ASSERT(outputs.size() == probes.rows());
    ml::Matrix result(outputs.size(),
                      outputs.empty() ? 0 : outputs.front().size());
    for (std::size_t r = 0; r < outputs.size(); ++r) {
      EXPLORA_ASSERT(outputs[r].size() == result.cols());
      std::copy(outputs[r].begin(), outputs[r].end(),
                result.data().begin() +
                    static_cast<std::ptrdiff_t>(r * result.cols()));
    }
    return result;
  };
}

}  // namespace

ShapExplainer::ShapExplainer(ModelFn model, std::vector<Vector> background)
    : ShapExplainer(std::move(model), std::move(background), Config{}) {}

ShapExplainer::ShapExplainer(ModelFn model, std::vector<Vector> background,
                             Config config)
    : ShapExplainer(matrix_model(std::move(model)), std::move(background),
                    config) {}

ShapExplainer::ShapExplainer(BatchModelFn model,
                             std::vector<Vector> background)
    : ShapExplainer(std::move(model), std::move(background), Config{}) {}

ShapExplainer::ShapExplainer(BatchModelFn model, std::vector<Vector> background,
                             Config config)
    : ShapExplainer(wrap_row_batched(std::move(model)), std::move(background),
                    config) {}

ShapExplainer::ShapExplainer(MatrixModelFn model,
                             std::vector<Vector> background)
    : ShapExplainer(std::move(model), std::move(background), Config{}) {}

ShapExplainer::ShapExplainer(MatrixModelFn model,
                             std::vector<Vector> background, Config config)
    : model_(std::move(model)),
      background_(std::move(background)),
      config_(config) {
  EXPLORA_EXPECTS(model_ != nullptr);
  EXPLORA_EXPECTS(!background_.empty());
  telemetry::Scope scope("xai.shap");
  tm_explanations_ = &scope.counter("explanations");
  tm_model_evals_ = &scope.counter("model_evals");
  // 512 = 2^9: the exact-mode coalition count for the paper's 9 latent
  // features; sampling mode typically lands in the overflow bucket.
  static constexpr std::int64_t kCoalitionBounds[] = {16, 64, 128, 256, 512};
  tm_coalitions_ = &scope.histogram("coalitions_per_explanation",
                                    kCoalitionBounds);
  tm_evals_per_explanation_ = &scope.span("evals_per_explanation");
  if (background_.size() > config_.max_background) {
    // Deterministic subsample: stride through the background.
    std::vector<Vector> reduced;
    reduced.reserve(config_.max_background);
    const double stride = static_cast<double>(background_.size()) /
                          static_cast<double>(config_.max_background);
    for (std::size_t i = 0; i < config_.max_background; ++i) {
      reduced.push_back(
          background_[static_cast<std::size_t>(stride * static_cast<double>(i))]);
    }
    background_ = std::move(reduced);
  }
  // Kernel-ready copy of the (possibly subsampled) background, built once:
  // base_values() feeds it straight to the model and coalition probes copy
  // rows out of contiguous storage.
  background_matrix_ = ml::Matrix(background_.size(), background_[0].size());
  for (std::size_t b = 0; b < background_.size(); ++b) {
    EXPLORA_EXPECTS(background_[b].size() == background_matrix_.cols());
    std::copy(background_[b].begin(), background_[b].end(),
              background_matrix_.data().begin() +
                  static_cast<std::ptrdiff_t>(b * background_matrix_.cols()));
  }
}

void ShapExplainer::count_evaluations(std::uint64_t rows) noexcept {
  evaluations_ += rows;
  tm_model_evals_->add(rows);
}

std::vector<Vector> ShapExplainer::coalition_values(
    const Vector& x, std::span<const std::uint32_t> masks) const {
  const std::size_t bg = background_.size();
  const std::size_t rows = masks.size() * bg;
  EXPLORA_EXPECTS(background_matrix_.cols() == x.size());

  // All probes of the whole coalition chunk go through the model as ONE
  // matrix — one fused GEMM sweep per layer instead of a model call per
  // coalition (let alone per probe row). Each call builds its own probe
  // matrix, so concurrent chunks share nothing.
  ml::Matrix probes(rows, x.size());
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const std::uint32_t mask = masks[m];
    for (std::size_t b = 0; b < bg; ++b) {
      const double* row = background_matrix_.data().data() + b * x.size();
      double* probe = probes.data().data() + (m * bg + b) * x.size();
      for (std::size_t f = 0; f < x.size(); ++f) {
        probe[f] = (mask >> f) & 1u ? x[f] : row[f];
      }
    }
  }
  const ml::Matrix outputs = model_(probes);
  EXPLORA_ASSERT(outputs.rows() == rows);

  // Per-coalition background average, accumulated in background order —
  // the exact summation the old per-coalition path ran, so values are
  // bit-identical to pre-batching results.
  std::vector<Vector> values(masks.size());
  const std::size_t num_outputs = outputs.cols();
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const auto first =
        outputs.data().subspan(m * bg * num_outputs, num_outputs);
    Vector accumulator(first.begin(), first.end());
    for (std::size_t b = 1; b < bg; ++b) {
      const double* row =
          outputs.data().data() + (m * bg + b) * num_outputs;
      for (std::size_t i = 0; i < num_outputs; ++i) accumulator[i] += row[i];
    }
    for (double& v : accumulator) v /= static_cast<double>(bg);
    values[m] = std::move(accumulator);
  }
  return values;
}

Vector ShapExplainer::base_values() {
  if (base_cache_) return *base_cache_;
  const ml::Matrix outputs = model_(background_matrix_);
  EXPLORA_ASSERT(outputs.rows() == background_.size());
  count_evaluations(background_.size());
  const std::size_t num_outputs = outputs.cols();
  const auto first = outputs.data().subspan(0, num_outputs);
  Vector accumulator(first.begin(), first.end());
  for (std::size_t b = 1; b < outputs.rows(); ++b) {
    const double* row = outputs.data().data() + b * num_outputs;
    for (std::size_t i = 0; i < num_outputs; ++i) accumulator[i] += row[i];
  }
  for (double& v : accumulator) {
    v /= static_cast<double>(background_.size());
  }
  base_cache_ = accumulator;
  return accumulator;
}

ml::Matrix ShapExplainer::coalition_table(const Vector& x) {
  const std::size_t num_features = x.size();
  EXPLORA_EXPECTS(num_features > 0 && num_features <= 20);

  // Evaluate v(S) for every coalition once. Coalition values are mutually
  // independent, so the 2^N evaluations fan out across the pool in chunks
  // of kCoalitionGrain coalitions; each chunk assembles its probes into
  // one matrix and makes ONE model call (grain x |background| rows per
  // GEMM sweep), bounding memory while keeping the kernels fed. Each slot
  // is written by exactly one chunk and the per-coalition arithmetic is
  // untouched, keeping results identical to a serial run.
  constexpr std::size_t kCoalitionGrain = 16;
  const std::uint32_t num_coalitions = 1u << num_features;
  std::vector<Vector> values(num_coalitions);
  pool().parallel_for(
      0, num_coalitions, kCoalitionGrain,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> masks(end - begin);
        for (std::size_t i = 0; i < masks.size(); ++i) {
          masks[i] = static_cast<std::uint32_t>(begin + i);
        }
        std::vector<Vector> chunk = coalition_values(x, masks);
        for (std::size_t i = 0; i < masks.size(); ++i) {
          values[begin + i] = std::move(chunk[i]);
        }
      });
  count_evaluations(std::uint64_t{num_coalitions} * background_.size());
  ml::Matrix table(num_coalitions, values[0].size());
  for (std::size_t mask = 0; mask < num_coalitions; ++mask) {
    EXPLORA_ASSERT(values[mask].size() == table.cols());
    std::copy(values[mask].begin(), values[mask].end(),
              table.data().begin() +
                  static_cast<std::ptrdiff_t>(mask * table.cols()));
  }
  return table;
}

std::vector<Vector> ShapExplainer::explain_exact(const Vector& x,
                                                 const ml::Matrix* known) {
  const std::size_t num_features = x.size();
  EXPLORA_EXPECTS(num_features > 0 && num_features <= 20);
  const std::uint32_t num_coalitions = 1u << num_features;
  const ml::Matrix computed =
      known == nullptr ? coalition_table(x) : ml::Matrix{};
  const ml::Matrix& values = known == nullptr ? computed : *known;
  EXPLORA_EXPECTS(values.rows() == num_coalitions);
  const std::size_t num_outputs = values.cols();

  // phi_i = sum_S |S|! (N-|S|-1)! / N! * (v(S u {i}) - v(S)), i not in S.
  // The weight depends only on |S|: precompute it per coalition size
  // instead of recomputing factorials per (feature, mask) pair.
  std::vector<double> weight_by_size(num_features);
  for (std::size_t k = 0; k < num_features; ++k) {
    weight_by_size[k] = shapley_weight(num_features, k);
  }
  // Filled row by row: GCC 12 at -O3 reports a false -Wfree-nonheap-object
  // on the vector-of-vectors fill constructor here.
  std::vector<Vector> phi(num_outputs);
  for (Vector& row : phi) row.assign(num_features, 0.0);
  for (std::size_t f = 0; f < num_features; ++f) {
    const std::uint32_t f_bit = 1u << f;
    for (std::uint32_t mask = 0; mask < num_coalitions; ++mask) {
      if (mask & f_bit) continue;
      const double weight =
          weight_by_size[static_cast<std::size_t>(std::popcount(mask))];
      for (std::size_t o = 0; o < num_outputs; ++o) {
        phi[o][f] += weight * (values(mask | f_bit, o) - values(mask, o));
      }
    }
  }
  // Shapley efficiency (additivity): sum_i phi_i must recover
  // f(x) - E[f(background)], i.e. v(full) - v(empty). A drift here means
  // the coalition fan-out or the weight table is corrupt.
  if (contracts::check_level() >= contracts::CheckLevel::kAudit) {
    for (std::size_t o = 0; o < num_outputs; ++o) {
      const double v_full = values(num_coalitions - 1, o);
      const double v_empty = values(0, o);
      double phi_sum = 0.0;
      for (std::size_t f = 0; f < num_features; ++f) phi_sum += phi[o][f];
      EXPLORA_AUDIT_MSG(
          contracts::approx_equal(phi_sum, v_full - v_empty, 1e-6, 1e-6),
          "output {}: sum(phi) + base = {} but f(x) = {}", o,
          phi_sum + v_empty, v_full);
    }
  }
  return phi;
}

std::vector<Vector> ShapExplainer::explain_sampling(const Vector& x,
                                                    const ml::Matrix* known) {
  const std::size_t num_features = x.size();
  EXPLORA_EXPECTS(num_features > 0 && num_features < 32);
  EXPLORA_EXPECTS(known == nullptr ||
                  known->rows() == (std::size_t{1} << num_features));

  // Permutation chains are independent given per-permutation RNG streams
  // derived from the seed, so they run concurrently; partial phi sums are
  // merged in permutation order (grain 1 = one chunk per permutation),
  // which reproduces the serial summation bit-for-bit.
  using Phi = std::vector<Vector>;
  Phi phi = pool().parallel_map_reduce(
      std::size_t{0}, config_.permutations, /*grain=*/1, Phi{},
      [&](std::size_t p, std::size_t) {
        std::uint64_t stream = config_.seed + p + 1;
        common::Rng rng(common::splitmix64(stream));
        std::vector<std::size_t> order(num_features);
        for (std::size_t i = 0; i < num_features; ++i) order[i] = i;
        rng.shuffle(order);

        // The chain's coalitions are its prefix masks — all known before
        // any evaluation, so the whole permutation goes through the model
        // as one batched call, or is read from the known table.
        std::vector<std::uint32_t> masks(num_features + 1, 0u);
        std::uint32_t mask = 0;
        for (std::size_t i = 0; i < num_features; ++i) {
          mask |= 1u << order[i];
          masks[i + 1] = mask;
        }
        std::vector<Vector> values;
        if (known == nullptr) {
          values = coalition_values(x, masks);
        } else {
          for (const std::uint32_t m : masks) {
            const auto row = known->data().subspan(m * known->cols(),
                                                   known->cols());
            values.emplace_back(row.begin(), row.end());
          }
        }
        Phi local(values[0].size(), Vector(num_features, 0.0));
        for (std::size_t i = 0; i < num_features; ++i) {
          const Vector& current = values[i + 1];
          const Vector& previous = values[i];
          const std::size_t f = order[i];
          for (std::size_t o = 0; o < local.size(); ++o) {
            local[o][f] += current[o] - previous[o];
          }
        }
        return local;
      },
      [](Phi& acc, Phi&& partial) {
        if (acc.empty()) {
          acc = std::move(partial);
          return;
        }
        for (std::size_t o = 0; o < acc.size(); ++o) {
          for (std::size_t f = 0; f < acc[o].size(); ++f) {
            acc[o][f] += partial[o][f];
          }
        }
      });
  if (known == nullptr) {
    count_evaluations(config_.permutations * (num_features + 1) *
                      background_.size());
  }
  for (auto& per_output : phi) {
    for (double& v : per_output) {
      v /= static_cast<double>(config_.permutations);
    }
  }
  return phi;
}

Vector ShapExplainer::explain(const Vector& x, std::size_t output_index) {
  const auto all = explain_all_outputs(x);
  EXPLORA_EXPECTS(output_index < all.size());
  return all[output_index];
}

std::vector<Vector> ShapExplainer::explain_all_outputs(const Vector& x) {
  return estimate(x, nullptr);
}

std::vector<Vector> ShapExplainer::explain_all_outputs(
    const Vector& x, const ml::Matrix& coalition_values) {
  return estimate(x, &coalition_values);
}

std::vector<Vector> ShapExplainer::estimate(const Vector& x,
                                            const ml::Matrix* known) {
  // Per-explanation cost accounting, computed analytically so it is exact
  // under any thread count: coalitions and model evaluations (coalitions x
  // background rows) this one explanation accounts for, whether evaluated
  // here or read from a known coalition table (Fig. 4's cost model).
  // xai.shap.model_evals counts the evaluations actually performed.
  const std::size_t num_features = x.size();
  const std::size_t coalitions =
      config_.mode == Mode::kExact
          ? (std::size_t{1} << num_features)
          : config_.permutations * (num_features + 1);
  tm_explanations_->add(1);
  tm_coalitions_->observe(static_cast<std::int64_t>(coalitions));
  tm_evals_per_explanation_->record(
      static_cast<std::int64_t>(coalitions * background_.size()));
  return config_.mode == Mode::kExact ? explain_exact(x, known)
                                      : explain_sampling(x, known);
}

}  // namespace explora::xai
