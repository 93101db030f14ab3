// The autoencoder of the paper's DRL framework (Fig. 2): compresses the
// M x K x L input matrix I (90 values) into a K x L latent representation
// (9 values, AE_0..AE_8) that feeds the PPO agent. Trained offline with MSE
// reconstruction loss, exactly as the well-established RL practice the
// paper cites [38, 62].
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "common/rng.hpp"
#include "ml/nn.hpp"

namespace explora::ml {

class Autoencoder {
 public:
  struct Config {
    std::size_t input_dim = 90;
    std::size_t hidden_dim = 48;
    std::size_t latent_dim = 9;
    double learning_rate = 1e-3;
    std::size_t epochs = 60;
    std::size_t batch_size = 32;
  };

  /// @param config network/training shape.
  /// @param seed weight-initialization and shuffling seed.
  explicit Autoencoder(std::uint64_t seed = 7);
  Autoencoder(Config config, std::uint64_t seed);

  /// Trains encoder+decoder on `dataset` (each row of size input_dim).
  /// Returns the final epoch's mean reconstruction MSE.
  double train(const std::vector<Vector>& dataset);

  /// Latent representation of one input (size latent_dim).
  [[nodiscard]] Vector encode(std::span<const double> input) const;
  /// The same, written into `code` (size latent_dim).
  void encode(std::span<const double> input, std::span<double> code) const;
  /// Decoder round-trip (size input_dim), for fidelity checks.
  [[nodiscard]] Vector reconstruct(std::span<const double> input) const;
  /// Mean squared reconstruction error over a dataset.
  [[nodiscard]] double evaluate(const std::vector<Vector>& dataset) const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

  void serialize(common::Writer& writer) const;
  void deserialize(common::Reader& reader);

 private:
  Config config_;
  common::Rng rng_;
  Mlp encoder_;
  Mlp decoder_;
};

}  // namespace explora::ml
