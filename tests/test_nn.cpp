// Tests for the neural-network core (ml/matrix, ml/nn): matrix and layer
// ops against hand-computed values, backprop against numerical
// differentiation, Adam convergence, and serialization round trips.
#include "ml/nn.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ml/matrix.hpp"

namespace explora::ml {
namespace {

/// Sets a layer's parameters in collect_parameters() order: W row-major,
/// then the bias.
void set_parameters(DenseLayer& layer, const Vector& values) {
  std::vector<double*> params;
  std::vector<double*> grads;
  layer.collect_parameters(params, grads);
  ASSERT_EQ(params.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) *params[i] = values[i];
}

TEST(DenseLayer, ForwardKnownValues) {
  common::Rng rng(1);
  DenseLayer layer(3, 2, Activation::kLinear, rng);
  // W = [[1 2 3], [4 5 6]], b = [0.5, -1]
  set_parameters(layer, {1, 2, 3, 4, 5, 6, 0.5, -1});
  Vector x{1.0, 0.0, -1.0};
  Vector y(2, 0.0);
  layer.forward(x, y);
  EXPECT_DOUBLE_EQ(y[0], -1.5);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
}

// The input gradient is W^T grad_out, read off the weight panels.
TEST(DenseLayer, BackwardInputGradientKnownValues) {
  common::Rng rng(1);
  DenseLayer layer(3, 2, Activation::kLinear, rng);
  // W = [[1 2 3], [4 5 6]], b = [0, 0]
  set_parameters(layer, {1, 2, 3, 4, 5, 6, 0, 0});
  const Vector x{0.0, 0.0, 0.0};
  Vector activated(2, 0.0);
  layer.forward(x, activated);
  Vector grad_out{1.0, -1.0};
  Vector grad_in(3, 0.0);
  layer.backward(x, activated, grad_out, grad_in);
  EXPECT_DOUBLE_EQ(grad_in[0], -3.0);
  EXPECT_DOUBLE_EQ(grad_in[1], -3.0);
  EXPECT_DOUBLE_EQ(grad_in[2], -3.0);
}

TEST(Matrix, AddOuter) {
  Matrix m(2, 2);
  Vector u{1.0, 2.0};
  Vector v{3.0, 4.0};
  m.add_outer(0.5, u, v);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, FillResets) {
  Matrix m(3, 3);
  m(1, 1) = 7.0;
  m.fill(0.0);
  for (double v : m.data()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Softmax, SumsToOneAndOrders) {
  Vector logits{1.0, 3.0, 2.0};
  softmax(logits);
  EXPECT_NEAR(logits[0] + logits[1] + logits[2], 1.0, 1e-12);
  EXPECT_GT(logits[1], logits[2]);
  EXPECT_GT(logits[2], logits[0]);
}

TEST(Softmax, NumericallyStableOnLargeLogits) {
  Vector logits{1000.0, 1001.0};
  softmax(logits);
  EXPECT_FALSE(std::isnan(logits[0]));
  EXPECT_NEAR(logits[0] + logits[1], 1.0, 1e-12);
}

/// Numerical gradient check: perturb each parameter and compare the loss
/// slope with the analytic gradient from backward().
TEST(Mlp, GradientsMatchNumericalDifferentiation) {
  common::Rng rng(3);
  Mlp net({4, 5, 3}, Activation::kTanh, Activation::kLinear, rng);

  const Vector input{0.3, -0.7, 0.1, 0.9};
  const Vector target{1.0, -1.0, 0.5};

  auto loss_of = [&](Mlp& network) {
    Vector out(network.out_size(), 0.0);
    network.infer(input, out);
    double loss = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      loss += (out[i] - target[i]) * (out[i] - target[i]);
    }
    return loss;
  };

  // Analytic gradient.
  net.zero_grad();
  const Vector& out = net.forward(input);
  Vector grad(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    grad[i] = 2.0 * (out[i] - target[i]);
  }
  net.backward(grad);

  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);
  ASSERT_EQ(params.size(), net.parameter_count());

  const double epsilon = 1e-6;
  // Spot-check a spread of parameters (all of them would be slow).
  for (std::size_t i = 0; i < params.size(); i += 7) {
    const double saved = *params[i];
    *params[i] = saved + epsilon;
    const double loss_plus = loss_of(net);
    *params[i] = saved - epsilon;
    const double loss_minus = loss_of(net);
    *params[i] = saved;
    const double numeric = (loss_plus - loss_minus) / (2.0 * epsilon);
    EXPECT_NEAR(*grads[i], numeric, 1e-4)
        << "parameter index " << i;
  }
}

TEST(Mlp, GradientsMatchNumericalWithRelu) {
  common::Rng rng(5);
  Mlp net({3, 8, 2}, Activation::kRelu, Activation::kLinear, rng);
  const Vector input{0.5, -0.2, 0.8};

  net.zero_grad();
  const Vector& out = net.forward(input);
  Vector grad(out.size(), 1.0);  // L = sum(out)
  net.backward(grad);

  std::vector<double*> params;
  std::vector<double*> grads;
  net.collect_parameters(params, grads);
  const double epsilon = 1e-6;
  for (std::size_t i = 0; i < params.size(); i += 5) {
    const double saved = *params[i];
    auto loss_of = [&]() {
      Vector o(net.out_size(), 0.0);
      net.infer(input, o);
      return o[0] + o[1];
    };
    *params[i] = saved + epsilon;
    const double plus = loss_of();
    *params[i] = saved - epsilon;
    const double minus = loss_of();
    *params[i] = saved;
    EXPECT_NEAR(*grads[i], (plus - minus) / (2.0 * epsilon), 1e-4);
  }
}

TEST(Mlp, BackwardReturnsInputGradient) {
  common::Rng rng(7);
  Mlp net({2, 4, 1}, Activation::kTanh, Activation::kLinear, rng);
  const Vector input{0.1, 0.2};
  (void)net.forward(input);
  Vector grad{1.0};
  const Vector input_grad = net.backward(grad);
  ASSERT_EQ(input_grad.size(), 2u);

  // Check against numerical dL/dx.
  const double epsilon = 1e-6;
  for (std::size_t i = 0; i < input.size(); ++i) {
    Vector shifted = input;
    Vector out(1, 0.0);
    shifted[i] = input[i] + epsilon;
    net.infer(shifted, out);
    const double plus = out[0];
    shifted[i] = input[i] - epsilon;
    net.infer(shifted, out);
    const double minus = out[0];
    EXPECT_NEAR(input_grad[i], (plus - minus) / (2.0 * epsilon), 1e-5);
  }
}

TEST(Mlp, InferMatchesForward) {
  common::Rng rng(9);
  Mlp net({3, 6, 2}, Activation::kRelu, Activation::kTanh, rng);
  const Vector input{0.4, -0.6, 0.2};
  const Vector tape_out = net.forward(input);
  Vector infer_out(2, 0.0);
  net.infer(input, infer_out);
  EXPECT_DOUBLE_EQ(tape_out[0], infer_out[0]);
  EXPECT_DOUBLE_EQ(tape_out[1], infer_out[1]);
}

// Hidden layers wider than infer's stack rows take its heap rows; two of
// them make the second layer write the row the first one's output is not
// in, so an offset narrower than the widest layer would overlap them.
TEST(Mlp, InferMatchesForwardPastTheStackRows) {
  common::Rng rng(23);
  Mlp net({4, 300, 280, 3}, Activation::kRelu, Activation::kTanh, rng);
  const Vector input{0.4, -0.6, 0.2, 0.9};
  const Vector tape_out = net.forward(input);
  Vector infer_out(3, 0.0);
  net.infer(input, infer_out);
  for (std::size_t o = 0; o < 3; ++o) {
    EXPECT_EQ(tape_out[o], infer_out[o]);  // bit-identical
  }
}

TEST(DenseLayer, ForwardBatchMatchesPerRowForward) {
  common::Rng rng(17);
  const DenseLayer layer(7, 5, Activation::kLinear, rng);
  Matrix x(11, 7);
  for (auto& v : x.data()) v = rng.normal(0.0, 1.0);

  Matrix y(11, 5);
  layer.forward_batch(x, y);
  Vector row_out(5, 0.0);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    layer.forward(x.data().subspan(b * 7, 7), row_out);
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(y(b, r), row_out[r]);  // bit-identical
    }
  }
}

TEST(Mlp, ForwardBatchMatchesInferBitwise) {
  common::Rng rng(19);
  Mlp net({4, 8, 8, 3}, Activation::kRelu, Activation::kTanh, rng);
  Matrix inputs(9, 4);
  for (auto& v : inputs.data()) v = rng.uniform(-1.0, 1.0);

  const Matrix outputs = net.forward_batch(inputs);
  ASSERT_EQ(outputs.rows(), 9u);
  ASSERT_EQ(outputs.cols(), 3u);
  Vector row_out(3, 0.0);
  for (std::size_t b = 0; b < inputs.rows(); ++b) {
    net.infer(inputs.data().subspan(b * 4, 4), row_out);
    for (std::size_t o = 0; o < 3; ++o) {
      EXPECT_EQ(outputs(b, o), row_out[o]);  // bit-identical
    }
  }
}

TEST(Mlp, SerializeRoundTrip) {
  common::Rng rng(11);
  Mlp original({4, 8, 3}, Activation::kTanh, Activation::kLinear, rng);
  common::Writer writer;
  original.serialize(writer);

  common::Rng rng2(999);  // different init — must be overwritten by load
  Mlp loaded({4, 8, 3}, Activation::kTanh, Activation::kLinear, rng2);
  common::Reader reader(writer.buffer());
  loaded.deserialize(reader);

  const Vector input{0.1, 0.2, 0.3, 0.4};
  Vector out_a(3, 0.0);
  Vector out_b(3, 0.0);
  original.infer(input, out_a);
  loaded.infer(input, out_b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(out_a[i], out_b[i]);
}

TEST(Mlp, DeserializeRejectsShapeMismatch) {
  common::Rng rng(13);
  Mlp original({4, 8, 3}, Activation::kTanh, Activation::kLinear, rng);
  common::Writer writer;
  original.serialize(writer);

  Mlp wrong_shape({4, 9, 3}, Activation::kTanh, Activation::kLinear, rng);
  common::Reader reader(writer.buffer());
  EXPECT_THROW(wrong_shape.deserialize(reader), common::SerializeError);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(w) = sum (w - target)^2 through the optimizer plumbing: a
  // 1-layer "network" would do, but we exercise a 2-layer one on a fixed
  // input to make sure chained gradients reach every parameter.
  common::Rng rng(17);
  Mlp net({1, 4, 1}, Activation::kTanh, Activation::kLinear, rng);
  AdamOptimizer::Config config;
  config.learning_rate = 0.02;
  AdamOptimizer opt(config);
  opt.attach(net);

  const Vector input{1.0};
  const double target = 0.7;
  double loss = 0.0;
  for (int iteration = 0; iteration < 500; ++iteration) {
    net.zero_grad();
    const Vector& out = net.forward(input);
    loss = (out[0] - target) * (out[0] - target);
    Vector grad{2.0 * (out[0] - target)};
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(loss, 1e-4);
}

TEST(Adam, GradientClippingKeepsStepsFinite) {
  common::Rng rng(19);
  Mlp net({1, 2, 1}, Activation::kLinear, Activation::kLinear, rng);
  AdamOptimizer::Config config;
  config.learning_rate = 0.1;
  config.max_grad_norm = 1.0;
  AdamOptimizer opt(config);
  opt.attach(net);

  net.zero_grad();
  (void)net.forward(Vector{1e6});
  net.backward(Vector{1e6});  // enormous gradient
  opt.step();
  Vector out(1, 0.0);
  net.infer(Vector{1.0}, out);
  EXPECT_TRUE(std::isfinite(out[0]));
}

}  // namespace
}  // namespace explora::ml
