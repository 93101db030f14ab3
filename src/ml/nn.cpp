#include "ml/nn.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "ml/gemm.hpp"

namespace explora::ml {

namespace {

/// Maps a layer activation to the GEMM epilogue that fuses bias-add and
/// activation into the kernel while the output tile is cache-hot. The
/// fused arithmetic is the same (acc + bias, then the activation) in the
/// same element order, so results match the old two-pass code exactly.
[[nodiscard]] gemm::Epilogue epilogue_for(Activation act) noexcept {
  switch (act) {
    case Activation::kLinear: return gemm::Epilogue::kBias;
    case Activation::kRelu: return gemm::Epilogue::kBiasRelu;
    case Activation::kTanh: return gemm::Epilogue::kBiasTanh;
  }
  return gemm::Epilogue::kBias;
}

}  // namespace

void apply_activation_grad(Activation act, std::span<const double> activated,
                           std::span<double> grad) noexcept {
  EXPLORA_EXPECTS(activated.size() == grad.size());
  switch (act) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < grad.size(); ++i) {
        if (activated[i] <= 0.0) grad[i] = 0.0;
      }
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= 1.0 - activated[i] * activated[i];
      }
      return;
  }
}

void softmax(std::span<double> logits) noexcept {
  if (logits.empty()) return;
  EXPLORA_AUDIT_MSG(contracts::all_finite(logits),
                    "softmax over {} non-finite logits", logits.size());
  const double peak = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& v : logits) {
    v = detmath::exp(v - peak);
    sum += v;
  }
  for (double& v : logits) v /= sum;
  EXPLORA_AUDIT_MSG(contracts::is_probability_simplex(logits),
                    "softmax output of size {} left the probability simplex",
                    logits.size());
}

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Activation act,
                       common::Rng& rng)
    : in_(in),
      out_(out),
      panels_(gemm::panel_size(out, in), 0.0),
      bias_(out, 0.0),
      weight_grad_(out, in),
      bias_grad_(out, 0.0),
      act_(act) {
  EXPLORA_EXPECTS(in > 0 && out > 0);
  // He initialization for ReLU, Xavier for tanh/linear, drawn row-major.
  const double scale =
      act == Activation::kRelu
          ? std::sqrt(2.0 / static_cast<double>(in))
          : std::sqrt(1.0 / static_cast<double>(in));
  Vector weights(out * in);
  for (double& w : weights) w = rng.normal(0.0, scale);
  gemm::pack(weights.data(), out, in, panels_.data());
}

void DenseLayer::forward(std::span<const double> in,
                         std::span<double> out) const {
  EXPLORA_EXPECTS_MSG(in.size() == in_, "in has {} elements, layer takes {}",
                      in.size(), in_);
  EXPLORA_EXPECTS_MSG(out.size() == out_,
                      "out has {} elements, layer gives {}", out.size(),
                      out_);
  EXPLORA_AUDIT(contracts::all_finite(in));
  gemm::run(weights(), in.data(), 1, out.data(), bias_.data(),
            epilogue_for(act_));
}

void DenseLayer::forward_batch(const Matrix& in, Matrix& out) const {
  EXPLORA_EXPECTS_MSG(in.cols() == in_, "in is {}x{}, layer takes {} inputs",
                      in.rows(), in.cols(), in_);
  EXPLORA_EXPECTS_MSG(out.rows() == in.rows() && out.cols() == out_,
                      "out is {}x{}, want {}x{}", out.rows(), out.cols(),
                      in.rows(), out_);
  EXPLORA_AUDIT(contracts::all_finite(in.data()));
  gemm::run(weights(), in.data().data(), in.rows(), out.data().data(),
            bias_.data(), epilogue_for(act_));
}

void DenseLayer::backward(std::span<const double> in,
                          std::span<const double> activated,
                          std::span<double> grad_out,
                          std::span<double> grad_in) {
  EXPLORA_EXPECTS(grad_out.size() == out_ && grad_in.size() == in_);
  apply_activation_grad(act_, activated, grad_out);
  // dW += grad_out (x) in ; db += grad_out
  weight_grad_.add_outer(1.0, grad_out, in);
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    bias_grad_[i] += grad_out[i];
  }
  // grad_in = W^T grad_out, each grad_in[c] summed over r in ascending
  // order, so training bits do not depend on the weights' layout.
  EXPLORA_AUDIT(contracts::all_finite(grad_out));
  std::fill(grad_in.begin(), grad_in.end(), 0.0);
  for (std::size_t r = 0; r < out_; ++r) {
    const double g = grad_out[r];
    if (g == 0.0) continue;  // det-ok: float-eq (exact-zero skip is bit-safe)
    const double* lane = panels_.data() + gemm::panel_index(r, 0, in_);
    for (std::size_t c = 0; c < in_; ++c) {
      grad_in[c] += lane[c * gemm::kPanelWidth] * g;
    }
  }
}

void DenseLayer::zero_grad() noexcept {
  weight_grad_.fill(0.0);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0);
}

std::size_t DenseLayer::parameter_count() const noexcept {
  return out_ * in_ + bias_.size();
}

void DenseLayer::collect_parameters(std::vector<double*>& params,
                                    std::vector<double*>& grads) {
  auto grad_data = weight_grad_.data();
  for (std::size_t r = 0; r < out_; ++r) {
    for (std::size_t c = 0; c < in_; ++c) {
      params.push_back(&panels_[gemm::panel_index(r, c, in_)]);
      grads.push_back(&grad_data[r * in_ + c]);
    }
  }
  for (std::size_t i = 0; i < bias_.size(); ++i) {
    params.push_back(&bias_[i]);
    grads.push_back(&bias_grad_[i]);
  }
}

void DenseLayer::serialize(common::Writer& writer) const {
  writer.varint(out_);
  writer.varint(in_);
  writer.varint(static_cast<std::uint64_t>(act_));
  Vector weights(out_ * in_);
  for (std::size_t r = 0; r < out_; ++r) {
    for (std::size_t c = 0; c < in_; ++c) {
      weights[r * in_ + c] = panels_[gemm::panel_index(r, c, in_)];
    }
  }
  writer.f64_list(weights);
  writer.f64_list(bias_);
}

void DenseLayer::deserialize(common::Reader& reader) {
  const auto rows = reader.varint();
  const auto cols = reader.varint();
  const auto act = reader.varint();
  if (rows != out_ || cols != in_ ||
      act != static_cast<std::uint64_t>(act_)) {
    throw common::SerializeError("layer shape mismatch on load");
  }
  const auto weight_values = reader.f64_list();
  const auto bias_values = reader.f64_list();
  if (weight_values.size() != out_ * in_ ||
      bias_values.size() != bias_.size()) {
    throw common::SerializeError("layer payload size mismatch");
  }
  // In place, so the optimizer's parameter pointers stay valid.
  gemm::pack(weight_values.data(), out_, in_, panels_.data());
  std::copy(bias_values.begin(), bias_values.end(), bias_.begin());
}

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Activation hidden,
         Activation output, common::Rng& rng) {
  EXPLORA_EXPECTS(layer_sizes.size() >= 2);
  layers_.reserve(layer_sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    const bool last = i + 2 == layer_sizes.size();
    layers_.emplace_back(layer_sizes[i], layer_sizes[i + 1],
                         last ? output : hidden, rng);
  }
  tape_.resize(layer_sizes.size());
  for (std::size_t i = 0; i < layer_sizes.size(); ++i) {
    tape_[i].resize(layer_sizes[i], 0.0);
  }
  telemetry::Scope scope("ml.mlp");
  tm_forward_batches_ = &scope.counter("forward_batches");
  tm_backward_calls_ = &scope.counter("backward_calls");
  static constexpr std::int64_t kRowBounds[] = {1, 8, 32, 128, 512, 2048};
  tm_batch_rows_ = &scope.histogram("forward_batch_rows", kRowBounds);
}

std::size_t Mlp::in_size() const noexcept { return layers_.front().in_size(); }
std::size_t Mlp::out_size() const noexcept {
  return layers_.back().out_size();
}

const Vector& Mlp::forward(std::span<const double> in) {
  EXPLORA_EXPECTS(in.size() == in_size());
  std::copy(in.begin(), in.end(), tape_[0].begin());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward(tape_[i], tape_[i + 1]);
  }
  return tape_.back();
}

void Mlp::infer(std::span<const double> in, std::span<double> out) const {
  EXPLORA_EXPECTS(in.size() == in_size());
  EXPLORA_EXPECTS(out.size() == out_size());
  // Activations ping-pong between two scratch rows: on the stack when
  // every layer fits kStackWidth (all of the project's networks), else on
  // the heap. Each layer writes its whole output, so neither is cleared.
  constexpr std::size_t kStackWidth = 256;
  std::size_t widest = 0;
  for (const DenseLayer& layer : layers_) {
    widest = std::max(widest, layer.out_size());
  }
  std::array<double, 2 * kStackWidth> stack_rows;
  Vector heap_rows;
  std::span<double> rows(stack_rows);
  if (widest > kStackWidth) {
    heap_rows.resize(2 * widest);
    rows = heap_rows;
  }
  const std::size_t width = std::max(widest, kStackWidth);
  std::span<const double> current = in;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::span<double> next =
        rows.subspan((i % 2) * width, layers_[i].out_size());
    layers_[i].forward(current, next);
    current = next;
  }
  std::copy(current.begin(), current.end(), out.begin());
}

Matrix Mlp::forward_batch(const Matrix& in) const {
  EXPLORA_EXPECTS(in.cols() == in_size());
  tm_forward_batches_->add(1);
  tm_batch_rows_->observe(static_cast<std::int64_t>(in.rows()));
  Matrix current(in.rows(), layers_.front().out_size());
  layers_.front().forward_batch(in, current);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    Matrix next(current.rows(), layers_[i].out_size());
    layers_[i].forward_batch(current, next);
    current = std::move(next);
  }
  return current;
}

Vector Mlp::backward(std::span<const double> grad_output) {
  EXPLORA_EXPECTS(grad_output.size() == out_size());
  tm_backward_calls_->add(1);
  Vector grad_out(grad_output.begin(), grad_output.end());
  Vector grad_in;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad_in.assign(layers_[i].in_size(), 0.0);
    layers_[i].backward(tape_[i], tape_[i + 1], grad_out, grad_in);
    grad_out.swap(grad_in);
  }
  return grad_out;
}

void Mlp::zero_grad() noexcept {
  for (auto& layer : layers_) layer.zero_grad();
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

void Mlp::collect_parameters(std::vector<double*>& params,
                             std::vector<double*>& grads) {
  for (auto& layer : layers_) layer.collect_parameters(params, grads);
}

void Mlp::serialize(common::Writer& writer) const {
  writer.varint(layers_.size());
  for (const auto& layer : layers_) layer.serialize(writer);
}

void Mlp::deserialize(common::Reader& reader) {
  const auto count = reader.varint();
  if (count != layers_.size()) {
    throw common::SerializeError("network depth mismatch on load");
  }
  for (auto& layer : layers_) layer.deserialize(reader);
}

AdamOptimizer::AdamOptimizer() : AdamOptimizer(Config{}) {}

AdamOptimizer::AdamOptimizer(Config config) : config_(config) {
  EXPLORA_EXPECTS(config.learning_rate > 0.0);
}

void AdamOptimizer::attach(Mlp& network) {
  network.collect_parameters(params_, grads_);
  m_.assign(params_.size(), 0.0);
  v_.assign(params_.size(), 0.0);
  t_ = 0;
}

void AdamOptimizer::step() {
  EXPLORA_EXPECTS(!params_.empty());
  if (config_.max_grad_norm > 0.0) {
    double norm_sq = 0.0;
    for (const double* g : grads_) norm_sq += *g * *g;
    const double norm = std::sqrt(norm_sq);
    if (norm > config_.max_grad_norm) {
      const double scale = config_.max_grad_norm / norm;
      for (double* g : grads_) *g *= scale;
    }
  }
  ++t_;
  const auto t = static_cast<double>(t_);
  const double bias1 = 1.0 - std::pow(config_.beta1, t);  // det-ok: libm-transcendental (ROADMAP item 3)
  const double bias2 = 1.0 - std::pow(config_.beta2, t);  // det-ok: libm-transcendental (ROADMAP item 3)
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const double g = *grads_[i];
    m_[i] = config_.beta1 * m_[i] + (1.0 - config_.beta1) * g;
    v_[i] = config_.beta2 * v_[i] + (1.0 - config_.beta2) * g * g;
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    *params_[i] -=
        config_.learning_rate * m_hat / (std::sqrt(v_hat) + config_.epsilon);
  }
}

}  // namespace explora::ml
