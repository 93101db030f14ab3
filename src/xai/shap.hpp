// SHAP (SHapley Additive exPlanations) from scratch — the state-of-the-art
// XAI baseline the paper evaluates against (§3.2, Eq. 2, Figs. 3-4).
//
// Two estimators over a background dataset:
//   - exact: enumerates all 2^N feature coalitions (N = 9 latent features
//     in the paper's use case) and applies the exact Shapley weights — this
//     is Eq. (2) and is deliberately expensive, reproducing the cost the
//     paper measures in Fig. 4;
//   - sampling: Monte Carlo over random permutations (Castro et al.),
//     unbiased with configurable sample count.
//
// Missing features are marginalized by substituting values from background
// rows (the interventional conditional expectation used by KernelSHAP).
//
// Parallelism: coalition values (exact mode) and permutation chains
// (sampling mode) are evaluated on a thread pool (Config::pool, default
// the EXPLORA_THREADS-sized global pool). Each permutation draws from its
// own RNG stream derived from Config::seed, and partial sums are merged in
// a fixed chunk order, so results are bit-identical for any thread count.
// The model callback must therefore be safe to invoke concurrently
// (e.g. Mlp::infer / PpoAgent::head_distributions, which are const and
// allocation-local).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/thread_annotations.hpp"
#include "ml/matrix.hpp"

namespace explora::ml {
class Mlp;
}  // namespace explora::ml

namespace explora::xai {

using ml::Vector;

/// Black-box model: feature vector in, output vector out (e.g. the agent's
/// per-head action scores). Must be callable concurrently from several
/// threads.
using ModelFn = std::function<Vector(const Vector&)>;

/// Batched black-box model: evaluates a whole batch of probes in one call
/// (one output row per input row). Lets models amortize per-call overhead —
/// e.g. Mlp::forward_batch pushes all rows through each layer as one
/// GEMM-style loop. Must be callable concurrently from several threads.
using BatchModelFn =
    std::function<std::vector<Vector>(const std::vector<Vector>&)>;

/// Matrix-batched black-box model — the explainer's native entry point:
/// one probe per input row, one output row per probe, no per-row vector
/// allocations on either side. The whole coalition chunk (many coalitions
/// x |background| rows) reaches the model as a single matrix, which the
/// blocked GEMM backends turn into one kernel sweep. Must be callable
/// concurrently from several threads.
using MatrixModelFn = std::function<ml::Matrix(const ml::Matrix&)>;

/// Wraps an Mlp into a MatrixModelFn backed by Mlp::forward_batch, so a
/// whole chunk of coalition probes goes through the network at once.
/// The Mlp must outlive the returned callable.
[[nodiscard]] MatrixModelFn batch_model(const ml::Mlp& mlp);

/// Adapts a per-row model to the matrix-batched entry point (row-by-row
/// evaluation; the fallback for truly black-box callables).
[[nodiscard]] MatrixModelFn matrix_model(ModelFn model);

class ShapExplainer {
 public:
  enum class Mode : std::uint8_t { kExact = 0, kSampling = 1 };

  struct Config {
    Mode mode = Mode::kExact;
    std::size_t permutations = 200;     ///< sampling mode only
    std::size_t max_background = 32;    ///< background rows used per v(S)
    std::uint64_t seed = 17;
    /// Pool for the coalition/permutation fan-out; nullptr = the global
    /// EXPLORA_THREADS pool. A 1-thread pool reproduces serial execution.
    common::ThreadPool* pool = nullptr;
  };

  /// @param model black-box to explain (never null).
  /// @param background reference dataset for marginalizing missing
  ///        features; at least one row.
  ShapExplainer(ModelFn model, std::vector<Vector> background);
  ShapExplainer(ModelFn model, std::vector<Vector> background, Config config);
  /// Batched variant: `model` receives whole probe batches (one coalition
  /// = |background| rows per inner vector batch).
  ShapExplainer(BatchModelFn model, std::vector<Vector> background);
  ShapExplainer(BatchModelFn model, std::vector<Vector> background,
                Config config);
  /// Matrix-batched variant (native): `model` receives one matrix holding
  /// a whole chunk of coalition probes and returns one output row per
  /// probe row.
  ShapExplainer(MatrixModelFn model, std::vector<Vector> background);
  ShapExplainer(MatrixModelFn model, std::vector<Vector> background,
                Config config);

  /// Shapley values of every feature for output `output_index` at `x`.
  /// Exact mode cost: O(2^N * |background|) model evaluations.
  [[nodiscard]] Vector explain(const Vector& x, std::size_t output_index);

  /// Shapley values for all model outputs at once (shares the coalition
  /// evaluations). Result: [output][feature].
  [[nodiscard]] std::vector<Vector> explain_all_outputs(const Vector& x);

  /// Model evaluations performed so far (cost accounting for Fig. 4).
  [[nodiscard]] std::uint64_t model_evaluations() const noexcept {
    return evaluations_.load(std::memory_order_relaxed);
  }
  void reset_evaluation_counter() noexcept {
    evaluations_.store(0, std::memory_order_relaxed);
  }

  /// Expected model output over the background (the SHAP base value).
  /// Computed on first call and cached; safe to call concurrently.
  [[nodiscard]] Vector base_values();

 private:
  /// Batched v(S): one fused model call for all `masks`. Result i is the
  /// expected model output with features in masks[i] taken from x and the
  /// rest marginalized over the background (averaged in background order,
  /// exactly as the old per-coalition path did). Thread-safe: the probe
  /// matrix comes from the explainer-owned scratch pool.
  [[nodiscard]] std::vector<Vector> coalition_values(
      const Vector& x, std::span<const std::uint32_t> masks);
  [[nodiscard]] std::vector<Vector> explain_exact(const Vector& x);
  [[nodiscard]] std::vector<Vector> explain_sampling(const Vector& x);
  [[nodiscard]] common::ThreadPool& pool() const noexcept {
    return config_.pool != nullptr ? *config_.pool : common::global_pool();
  }

  /// Reusable probe matrices (hoisted out of the per-coalition hot path);
  /// workers check one out, fill + evaluate it, and return it.
  [[nodiscard]] ml::Matrix acquire_scratch();
  void release_scratch(ml::Matrix&& scratch);

  MatrixModelFn model_;
  std::vector<Vector> background_;
  ml::Matrix background_matrix_;  ///< same rows, kernel-ready layout
  Config config_;
  // atomics-ok: commutative-counter (model-eval tally; order-free add fold)
  std::atomic<std::uint64_t> evaluations_ = 0;

  // The one lock nest: base_values() holds this across a model call,
  // which may fan out onto the pool and take its queue and job locks.
  common::Mutex base_mutex_;
  std::optional<Vector> base_cache_ EXPLORA_GUARDED_BY(base_mutex_);

  // Scratch freelist; acquired briefly from pool workers that hold no
  // other lock.
  common::Mutex scratch_mutex_;
  std::vector<ml::Matrix> scratch_pool_ EXPLORA_GUARDED_BY(scratch_mutex_);

  // Telemetry (xai.shap.*), bound at construction. model_evals mirrors
  // evaluations_ into snapshots (atomic adds from pool workers, so totals
  // are thread-count independent); evals_per_explanation is the exact
  // per-explanation cost the paper's Fig. 4 accounts (coalitions x
  // background rows, computed analytically, not raced).
  telemetry::Counter* tm_explanations_;
  telemetry::Counter* tm_model_evals_;
  telemetry::Histogram* tm_coalitions_;
  telemetry::SpanStat* tm_evals_per_explanation_;
};

/// Factorials 0..31 as doubles (Shapley weight computation; covers the full
/// feature range both estimators accept).
[[nodiscard]] double factorial(std::size_t n) noexcept;

/// The exact-mode Shapley coalition weight |S|! (N-|S|-1)! / N! for a
/// coalition of size `coalition_size` out of `num_features` features,
/// precomputable per size (hoisted out of the per-(feature, mask) loop).
[[nodiscard]] double shapley_weight(std::size_t num_features,
                                    std::size_t coalition_size) noexcept;

}  // namespace explora::xai
