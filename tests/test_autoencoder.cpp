// Tests for the autoencoder (ml/autoencoder).
#include "ml/autoencoder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace explora::ml {
namespace {

Autoencoder::Config small_config() {
  Autoencoder::Config config;
  config.input_dim = 12;
  config.hidden_dim = 16;
  config.latent_dim = 3;
  config.epochs = 80;
  config.batch_size = 16;
  return config;
}

/// Synthetic low-rank data: 12-dim inputs generated from 3 latent factors,
/// so a 3-dim bottleneck can reconstruct them well.
std::vector<Vector> low_rank_dataset(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  // Random mixing matrix (fixed per dataset).
  std::vector<Vector> basis(3, Vector(12, 0.0));
  for (auto& row : basis) {
    for (double& v : row) v = rng.normal(0.0, 1.0);
  }
  std::vector<Vector> data;
  data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    const double c = rng.uniform(-1.0, 1.0);
    Vector x(12, 0.0);
    for (std::size_t j = 0; j < 12; ++j) {
      x[j] = 0.3 * (a * basis[0][j] + b * basis[1][j] + c * basis[2][j]);
    }
    data.push_back(std::move(x));
  }
  return data;
}

TEST(Autoencoder, EncodeHasLatentDim) {
  Autoencoder ae(small_config(), 1);
  const Vector code = ae.encode(Vector(12, 0.1));
  EXPECT_EQ(code.size(), 3u);
  for (double v : code) {
    EXPECT_GE(v, -1.0);  // tanh latent
    EXPECT_LE(v, 1.0);
  }
}

TEST(Autoencoder, TrainingReducesReconstructionError) {
  const auto data = low_rank_dataset(400, 3);
  Autoencoder ae(small_config(), 5);
  const double before = ae.evaluate(data);
  const double final_epoch_mse = ae.train(data);
  const double after = ae.evaluate(data);
  EXPECT_LT(after, before * 0.5);
  EXPECT_NEAR(final_epoch_mse, after, after * 2.0 + 1e-3);
}

TEST(Autoencoder, ReconstructionOnLowRankDataIsTight) {
  const auto data = low_rank_dataset(400, 7);
  Autoencoder ae(small_config(), 9);
  ae.train(data);
  EXPECT_LT(ae.evaluate(data), 0.01);
}

TEST(Autoencoder, DeterministicTraining) {
  const auto data = low_rank_dataset(100, 11);
  Autoencoder a(small_config(), 13);
  Autoencoder b(small_config(), 13);
  EXPECT_DOUBLE_EQ(a.train(data), b.train(data));
  const Vector probe(12, 0.2);
  EXPECT_EQ(a.encode(probe), b.encode(probe));
}

TEST(Autoencoder, SerializeRoundTrip) {
  const auto data = low_rank_dataset(100, 17);
  Autoencoder original(small_config(), 19);
  original.train(data);

  common::Writer writer;
  original.serialize(writer);
  Autoencoder loaded(small_config(), 999);
  common::Reader reader(writer.buffer());
  loaded.deserialize(reader);

  const Vector probe(12, -0.3);
  EXPECT_EQ(original.encode(probe), loaded.encode(probe));
}

TEST(Autoencoder, DeserializeRejectsWrongShape) {
  Autoencoder original(small_config(), 1);
  common::Writer writer;
  original.serialize(writer);

  auto other_config = small_config();
  other_config.latent_dim = 4;
  Autoencoder other(other_config, 1);
  common::Reader reader(writer.buffer());
  EXPECT_THROW(other.deserialize(reader), common::SerializeError);
}

}  // namespace
}  // namespace explora::ml
