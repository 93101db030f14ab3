// Unit tests for the project's one binary format (common/serialize): the
// untagged primitive sequence model files use, the shared stream header,
// atomic whole-file I/O, and the model-file path end to end — round-trip
// bit-exactness plus a hostile-input sweep that must only ever throw
// SerializeError. The tagged RIC grammar on top of the same primitives is
// covered by test_wire.cpp / test_codec.cpp.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/detmath.hpp"
#include "common/rng.hpp"
#include "harness/training.hpp"
#include "ml/nn.hpp"
#include "support/wire_fixtures.hpp"

namespace explora::common {
namespace {

constexpr StreamFormat kFormat{"test", 0x54534554u /* "TEST" */, 3, 1};

TEST(Serialize, RoundTripAllTypes) {
  // Doubles are stored as raw bits: signed zero, subnormals, infinities
  // and NaN payloads must come back memcmp-equal.
  const std::vector<double> doubles{
      1.5,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      1.0 / 3.0};
  Writer writer;
  writer.header(kFormat);
  writer.varint(42);
  writer.varint(1ull << 50);
  writer.zigzag(-1234567);
  writer.f64(3.14159);
  const std::vector<std::uint8_t> blob{'h', 'i'};
  writer.bytes(blob);
  writer.f64_list(doubles);

  Reader reader(writer.buffer());
  EXPECT_EQ(reader.header(kFormat), kFormat.minor);
  EXPECT_EQ(reader.varint(), 42u);
  EXPECT_EQ(reader.varint(), 1ull << 50);
  EXPECT_EQ(reader.zigzag(), -1234567);
  EXPECT_EQ(reader.f64(), 3.14159);
  const auto bytes = reader.bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), blob);
  const auto list = reader.f64_list();
  ASSERT_EQ(list.size(), doubles.size());
  EXPECT_EQ(std::memcmp(list.data(), doubles.data(),
                        doubles.size() * sizeof(double)),
            0);
  EXPECT_TRUE(reader.at_end());
}

TEST(Serialize, EmptyStringAndVector) {
  Writer writer;
  writer.bytes({});
  writer.f64_list({});
  Reader reader(writer.buffer());
  EXPECT_TRUE(reader.bytes().empty());
  EXPECT_TRUE(reader.f64_list().empty());
  EXPECT_TRUE(reader.at_end());
}

TEST(Serialize, RejectsWrongMagic) {
  Writer writer;
  writer.header(kFormat);
  StreamFormat other = kFormat;
  other.magic += 1;
  Reader reader(writer.buffer());
  EXPECT_THROW((void)reader.header(other), SerializeError);
}

TEST(Serialize, RejectsWrongVersion) {
  Writer writer;
  writer.header(kFormat);
  StreamFormat newer = kFormat;
  newer.major += 1;
  Reader reader(writer.buffer());
  try {
    (void)reader.header(newer);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("major version 3"), std::string::npos) << what;
    EXPECT_NE(what.find("major version 4"), std::string::npos) << what;
  }
  // A different minor alone is accepted and reported.
  StreamFormat older_minor = kFormat;
  older_minor.minor = 0;
  Reader minor_reader(writer.buffer());
  EXPECT_EQ(minor_reader.header(older_minor), kFormat.minor);
}

TEST(Serialize, RejectsTruncatedPayload) {
  Writer writer;
  writer.f64(7.0);
  auto data = writer.buffer();
  data.pop_back();
  Reader reader(data);
  EXPECT_THROW((void)reader.f64(), SerializeError);
  Reader short_header(std::span<const std::uint8_t>(data.data(), 5));
  EXPECT_THROW((void)short_header.header(kFormat), SerializeError);
}

TEST(Serialize, RejectsLyingVectorLength) {
  Writer writer;
  writer.varint(1000000);  // claims a huge list, no payload follows
  Reader reader(writer.buffer());
  EXPECT_THROW((void)reader.f64_list(), SerializeError);

  Writer max_writer;  // a length that would wrap pos + len
  max_writer.varint(std::numeric_limits<std::uint64_t>::max());
  Reader max_reader(max_writer.buffer());
  EXPECT_THROW((void)max_reader.f64_list(), SerializeError);

  Writer ragged;  // 9 bytes: not a whole number of doubles
  ragged.bytes(std::vector<std::uint8_t>(9, 0));
  Reader ragged_reader(ragged.buffer());
  EXPECT_THROW((void)ragged_reader.f64_list(), SerializeError);
}

TEST(Serialize, SaveAndLoadFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_serialize_test.bin";
  const std::vector<std::uint8_t> bytes{1, 2, 3, 0, 255};
  write_file_atomic(path, bytes);
  EXPECT_EQ(read_file(path), bytes);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove(path);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW((void)read_file("/nonexistent/path/file.bin"), SerializeError);
  // A directory opens like a file on Linux; it must fail as a read error.
  EXPECT_THROW((void)read_file(std::filesystem::temp_directory_path()),
               SerializeError);
}

TEST(Serialize, SaveOntoNonEmptyDirectoryThrowsAndLeavesNoTemp) {
  // The final rename cannot replace a non-empty directory: that failure
  // must surface as SerializeError and the temp file must not linger.
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_serialize_dir_target";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path / "occupant");
  EXPECT_THROW(write_file_atomic(path, std::vector<std::uint8_t>{1}),
               SerializeError);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path / "occupant"));
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace explora::common

// ---------------------------------------------------------------------------
// Model files: the untagged primitive sequence written by
// harness::serialize_system over a small hand-built system (no training).
// ---------------------------------------------------------------------------

namespace explora::harness {
namespace {

TrainingConfig small_model_config() {
  TrainingConfig config;
  config.autoencoder.input_dim = 6;
  config.autoencoder.hidden_dim = 4;
  config.autoencoder.latent_dim = 3;
  config.ppo.state_dim = 3;
  config.ppo.hidden_dim = 4;
  return config;
}

/// Weights differ from what deserialize_system's own init would produce,
/// so a field that fails to load shows up as a mismatch.
TrainedSystem small_model(const TrainingConfig& config) {
  TrainedSystem system;
  system.autoencoder = std::make_unique<ml::Autoencoder>(config.autoencoder, 5);
  system.agent = std::make_unique<ml::PpoAgent>(config.ppo, 6);
  return system;
}

TEST(Serialize, SaveCreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "explora_serialize_nested" / "deep";
  const auto path = dir / "file.bin";
  std::filesystem::remove_all(dir.parent_path());
  const TrainingConfig config = small_model_config();
  save_system(small_model(config), path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove_all(dir.parent_path());
}

TEST(ModelFile, SaveLoadIsBitExact) {
  const TrainingConfig config = small_model_config();
  const TrainedSystem original = small_model(config);
  const auto path =
      std::filesystem::temp_directory_path() / "explora_model_bitexact.bin";
  save_system(original, path);
  const TrainedSystem loaded =
      load_system(path, core::AgentProfile::kHighThroughput, config);
  std::filesystem::remove(path);

  // Doubles are stored as raw bits, so equal bytes mean every parameter
  // is memcmp-equal to the original.
  EXPECT_EQ(serialize_system(loaded), serialize_system(original));
  const ml::Vector probe{0.25, -0.5, 0.75};
  const double want = original.agent->value(probe);
  const double got = loaded.agent->value(probe);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
  const ml::Vector input(6, 0.1);
  EXPECT_EQ(original.autoencoder->encode(input),
            loaded.autoencoder->encode(input));
}

TEST(ModelFile, ArtifactNameCarriesTheNumericsVersion) {
  netsim::ScenarioConfig scenario;
  const auto path = artifact_path(core::AgentProfile::kHighThroughput,
                                  scenario, small_model_config());
  EXPECT_EQ(path.parent_path(), artifact_dir());
  const std::string name = path.filename().string();
  const std::string numerics =
      "-n" + std::to_string(detmath::kNumericsVersion) + ".bin";
  ASSERT_GE(name.size(), numerics.size()) << name;
  EXPECT_EQ(name.substr(name.size() - numerics.size()), numerics) << name;
  EXPECT_NE(name.find("-v3-"), std::string::npos) << name;
}

TEST(ModelFile, LoadFromDirectoryThrowsSerializeError) {
  // std::ifstream happily opens a directory on Linux; the loader must
  // still fail with SerializeError so load_or_train can recover.
  const auto dir =
      std::filesystem::temp_directory_path() / "explora_model_dir.bin";
  std::filesystem::create_directories(dir);
  EXPECT_THROW((void)load_system(dir, core::AgentProfile::kHighThroughput,
                                 small_model_config()),
               common::SerializeError);
  std::filesystem::remove_all(dir);
}

TEST(ModelFile, RejectsTrailingBytes) {
  const TrainingConfig config = small_model_config();
  auto bytes = serialize_system(small_model(config));
  bytes.push_back(0);
  const auto path =
      std::filesystem::temp_directory_path() / "explora_model_trailing.bin";
  common::write_file_atomic(path, bytes);
  EXPECT_THROW(
      (void)load_system(path, core::AgentProfile::kHighThroughput, config),
      common::SerializeError);
  std::filesystem::remove(path);
}

/// Decodes hostile bytes; anything but a clean load or SerializeError
/// (another exception type, a crash, a sanitizer report) fails the test.
template <typename Decode>
void expect_throws_or_loads(std::span<const std::uint8_t> bytes,
                            Decode decode) {
  try {
    decode(bytes);
  } catch (const common::SerializeError&) {
  }
}

TEST(ModelFileFuzz, MlpTruncationsAndCorruptionsThrowOrLoad) {
  common::Rng init(11);
  const ml::Mlp original({4, 5, 3}, ml::Activation::kTanh,
                         ml::Activation::kLinear, init);
  common::Writer writer;
  original.serialize(writer);
  const std::vector<std::uint8_t> bytes = writer.buffer();
  const auto decode = [](std::span<const std::uint8_t> input) {
    common::Rng rng(3);
    ml::Mlp loaded({4, 5, 3}, ml::Activation::kTanh, ml::Activation::kLinear,
                   rng);
    common::Reader reader(input);
    loaded.deserialize(reader);
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode(std::span(bytes.data(), len)),
                 common::SerializeError)
        << "truncated to " << len << " bytes";
  }
  common::Rng rng(4243);
  for (std::size_t trial = 0; trial < testfix::fuzz_iters(200); ++trial) {
    auto corrupt = bytes;
    for (std::size_t f = 0, n = 1 + rng.index(4); f < n; ++f) {
      corrupt[rng.index(corrupt.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    expect_throws_or_loads(corrupt, decode);
  }
}

TEST(ModelFileFuzz, SystemTruncationsAndCorruptionsThrowOrLoad) {
  const TrainingConfig config = small_model_config();
  const std::vector<std::uint8_t> bytes =
      serialize_system(small_model(config));
  const auto decode = [&config](std::span<const std::uint8_t> input) {
    (void)deserialize_system(input, core::AgentProfile::kHighThroughput,
                             config);
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode(std::span(bytes.data(), len)),
                 common::SerializeError)
        << "truncated to " << len << " bytes";
  }
  common::Rng rng(4244);
  for (std::size_t trial = 0; trial < testfix::fuzz_iters(200); ++trial) {
    auto corrupt = bytes;
    for (std::size_t f = 0, n = 1 + rng.index(4); f < n; ++f) {
      corrupt[rng.index(corrupt.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    expect_throws_or_loads(corrupt, decode);
  }
}

}  // namespace
}  // namespace explora::harness
