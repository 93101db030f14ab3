#include "ml/autoencoder.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"

namespace explora::ml {

namespace {

Mlp make_encoder(const Autoencoder::Config& config, common::Rng& rng) {
  // tanh latent keeps the code bounded in [-1, 1], matching the KPI scaling.
  return Mlp({config.input_dim, config.hidden_dim, config.latent_dim},
             Activation::kRelu, Activation::kTanh, rng);
}

Mlp make_decoder(const Autoencoder::Config& config, common::Rng& rng) {
  return Mlp({config.latent_dim, config.hidden_dim, config.input_dim},
             Activation::kRelu, Activation::kLinear, rng);
}

}  // namespace

Autoencoder::Autoencoder(std::uint64_t seed) : Autoencoder(Config{}, seed) {}

Autoencoder::Autoencoder(Config config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      encoder_(make_encoder(config_, rng_)),
      decoder_(make_decoder(config_, rng_)) {
  EXPLORA_EXPECTS(config.input_dim > config.latent_dim);
  EXPLORA_EXPECTS(config.batch_size > 0);
}

double Autoencoder::train(const std::vector<Vector>& dataset) {
  EXPLORA_EXPECTS(!dataset.empty());
  for (const auto& row : dataset) {
    EXPLORA_EXPECTS(row.size() == config_.input_dim);
  }

  AdamOptimizer::Config opt_config;
  opt_config.learning_rate = config_.learning_rate;
  AdamOptimizer enc_opt(opt_config);
  AdamOptimizer dec_opt(opt_config);
  enc_opt.attach(encoder_);
  dec_opt.attach(decoder_);

  std::vector<std::size_t> order(dataset.size());
  std::iota(order.begin(), order.end(), 0);

  double epoch_mse = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    epoch_mse = 0.0;
    std::size_t cursor = 0;
    while (cursor < order.size()) {
      const std::size_t batch_end =
          std::min(cursor + config_.batch_size, order.size());
      const double batch_n = static_cast<double>(batch_end - cursor);
      encoder_.zero_grad();
      decoder_.zero_grad();
      for (std::size_t b = cursor; b < batch_end; ++b) {
        const Vector& x = dataset[order[b]];
        const Vector& code = encoder_.forward(x);
        const Vector& recon = decoder_.forward(code);
        // MSE loss: L = mean((recon - x)^2); dL/drecon = 2(recon - x)/n.
        Vector grad(recon.size());
        double mse = 0.0;
        for (std::size_t i = 0; i < recon.size(); ++i) {
          const double diff = recon[i] - x[i];
          mse += diff * diff;
          grad[i] = 2.0 * diff /
                    (static_cast<double>(recon.size()) * batch_n);
        }
        epoch_mse += mse / static_cast<double>(recon.size());
        const Vector code_grad = decoder_.backward(grad);
        encoder_.backward(code_grad);
      }
      enc_opt.step();
      dec_opt.step();
      cursor = batch_end;
    }
    epoch_mse /= static_cast<double>(dataset.size());
  }
  return epoch_mse;
}

Vector Autoencoder::encode(std::span<const double> input) const {
  Vector code(config_.latent_dim, 0.0);
  encoder_.infer(input, code);
  return code;
}

void Autoencoder::encode(std::span<const double> input,
                         std::span<double> code) const {
  encoder_.infer(input, code);
}

Vector Autoencoder::reconstruct(std::span<const double> input) const {
  Vector code(config_.latent_dim, 0.0);
  encoder_.infer(input, code);
  Vector recon(config_.input_dim, 0.0);
  decoder_.infer(code, recon);
  return recon;
}

double Autoencoder::evaluate(const std::vector<Vector>& dataset) const {
  EXPLORA_EXPECTS(!dataset.empty());
  double total = 0.0;
  for (const auto& x : dataset) {
    const Vector recon = reconstruct(x);
    double mse = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double diff = recon[i] - x[i];
      mse += diff * diff;
    }
    total += mse / static_cast<double>(x.size());
  }
  return total / static_cast<double>(dataset.size());
}

void Autoencoder::serialize(common::Writer& writer) const {
  writer.varint(config_.input_dim);
  writer.varint(config_.hidden_dim);
  writer.varint(config_.latent_dim);
  encoder_.serialize(writer);
  decoder_.serialize(writer);
}

void Autoencoder::deserialize(common::Reader& reader) {
  if (reader.varint() != config_.input_dim ||
      reader.varint() != config_.hidden_dim ||
      reader.varint() != config_.latent_dim) {
    throw common::SerializeError("autoencoder shape mismatch");
  }
  encoder_.deserialize(reader);
  decoder_.deserialize(reader);
}

}  // namespace explora::ml
