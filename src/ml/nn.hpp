// A small feed-forward neural network with reverse-mode gradients and an
// Adam optimizer — enough to train the paper's autoencoder and PPO
// actor/critic from scratch, with serialization for weight caching.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/telemetry.hpp"
#include "ml/gemm.hpp"
#include "ml/matrix.hpp"

namespace explora::ml {

enum class Activation : std::uint8_t { kLinear = 0, kRelu = 1, kTanh = 2 };

/// Multiplies `grad` in place by the activation derivative, given the
/// *post-activation* values in `activated`.
void apply_activation_grad(Activation act, std::span<const double> activated,
                           std::span<double> grad) noexcept;

/// Numerically stable in-place softmax: exp(v - max) / sum, with the
/// repo's exp (detmath::exp), so its bits do not depend on the host libm.
void softmax(std::span<double> logits) noexcept;

/// Fully-connected layer y = act(Wx + b) with gradient accumulation.
///
/// W's one copy is kept in the GEMM kernels' panel layout
/// (gemm::PanelWeights), so a forward pass reads it as stored. Everything
/// that writes W goes through that copy: the optimizer through the
/// collect_parameters() pointers, a load through deserialize(). No second
/// copy exists to go stale.
class DenseLayer {
 public:
  /// He/Xavier-style initialization scaled for the activation.
  DenseLayer(std::size_t in, std::size_t out, Activation act,
             common::Rng& rng);

  [[nodiscard]] std::size_t in_size() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_size() const noexcept { return out_; }
  [[nodiscard]] Activation activation() const noexcept { return act_; }

  /// W as the kernels read it; pad lanes past out_size() are zero.
  [[nodiscard]] gemm::PanelWeights weights() const noexcept {
    return {panels_.data(), out_, in_};
  }

  /// Forward pass; `out.size() == out_size()`. Caches nothing — the MLP
  /// owns the activation tape so one layer can serve many passes.
  void forward(std::span<const double> in, std::span<double> out) const;

  /// Batched forward: `in` is (batch x in_size), `out` (batch x out_size).
  /// Row b of `out` is bit-identical to forward() on row b of `in`.
  void forward_batch(const Matrix& in, Matrix& out) const;

  /// Backward pass. `activated` is this layer's forward output for `in`;
  /// `grad_out` is dL/d(activated) and is clobbered; `grad_in` receives
  /// dL/d(in). Parameter gradients are accumulated into the grad buffers.
  void backward(std::span<const double> in, std::span<const double> activated,
                std::span<double> grad_out, std::span<double> grad_in);

  void zero_grad() noexcept;

  /// Flattened parameter / gradient access for the optimizer: W's
  /// elements in row-major order (pointers into the panels, pad lanes
  /// never included), then the bias.
  [[nodiscard]] std::size_t parameter_count() const noexcept;
  void collect_parameters(std::vector<double*>& params,
                          std::vector<double*>& grads);

  /// W goes on the wire row-major, whatever its layout in memory.
  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  std::size_t in_;
  std::size_t out_;
  common::AlignedVector<double> panels_;  ///< W, gemm::panel_index layout
  Vector bias_;
  Matrix weight_grad_;  ///< dL/dW, row-major
  Vector bias_grad_;
  Activation act_;
};

/// Multi-layer perceptron: a stack of DenseLayers with a forward tape so
/// backward() can be called right after forward() for the same input.
class Mlp {
 public:
  /// @param layer_sizes sizes including input and output, e.g. {90,32,9}.
  /// @param hidden activation for all layers but the last.
  /// @param output activation of the final layer.
  Mlp(std::vector<std::size_t> layer_sizes, Activation hidden,
      Activation output, common::Rng& rng);

  [[nodiscard]] std::size_t in_size() const noexcept;
  [[nodiscard]] std::size_t out_size() const noexcept;
  [[nodiscard]] const std::vector<DenseLayer>& layers() const noexcept {
    return layers_;
  }

  /// Forward pass recording the activation tape; returns the output.
  [[nodiscard]] const Vector& forward(std::span<const double> in);
  /// Forward without touching the tape (thread-compatible inference).
  void infer(std::span<const double> in, std::span<double> out) const;

  /// Batched inference: pushes all rows of `in` (batch x in_size) through
  /// the network layer by layer — one GEMM per layer instead of `batch`
  /// infer() calls. Thread-compatible (no tape); each returned row
  /// is bit-identical to infer() on that input row.
  [[nodiscard]] Matrix forward_batch(const Matrix& in) const;

  /// Backpropagates dL/d(output) through the recorded tape, accumulating
  /// parameter gradients; returns dL/d(input).
  Vector backward(std::span<const double> grad_output);

  void zero_grad() noexcept;
  [[nodiscard]] std::size_t parameter_count() const noexcept;
  void collect_parameters(std::vector<double*>& params,
                          std::vector<double*>& grads);

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  std::vector<DenseLayer> layers_;
  /// tape_[0] = input copy, tape_[i+1] = output of layer i.
  std::vector<Vector> tape_;

  // Telemetry (ml.mlp.*), bound at construction; copies of an Mlp share
  // the originals' metrics. Batched forwards run concurrently from pool
  // workers, so the underlying metrics are atomics.
  telemetry::Counter* tm_forward_batches_;
  telemetry::Counter* tm_backward_calls_;
  telemetry::Histogram* tm_batch_rows_;
};

/// Adam optimizer over pointers into one or more networks' parameters.
class AdamOptimizer {
 public:
  struct Config {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double max_grad_norm = 5.0;  ///< global-norm clip; <= 0 disables
  };

  AdamOptimizer();
  explicit AdamOptimizer(Config config);

  /// Registers a network's parameters; call once per network before step().
  void attach(Mlp& network);

  /// One Adam update from the currently accumulated gradients, then zeros
  /// nothing (callers zero grads when starting the next accumulation).
  void step();

  void set_learning_rate(double lr) noexcept { config_.learning_rate = lr; }
  [[nodiscard]] double learning_rate() const noexcept {
    return config_.learning_rate;
  }

 private:
  Config config_;
  std::vector<double*> params_;
  std::vector<double*> grads_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::int64_t t_ = 0;
};

}  // namespace explora::ml
