// Unit tests for the length-prefixed binary serialization layer
// (common/serialize), which persists ML artifacts (autoencoder/agent
// checkpoints). RIC messages and traces use the tagged, versioned
// oran/wire grammar instead — see test_wire.cpp / test_codec.cpp and the
// shared fixtures in tests/support/wire_fixtures.hpp.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace explora::common {
namespace {

constexpr std::uint64_t kMagic = 0x54455354u;  // "TEST"
constexpr std::uint32_t kVersion = 3;

TEST(Serialize, RoundTripAllTypes) {
  BinaryWriter writer(kMagic, kVersion);
  writer.write_u32(42);
  writer.write_u64(1ull << 50);
  writer.write_i64(-1234567);
  writer.write_f64(3.14159);
  writer.write_string("hello world");
  writer.write_f64_vector({1.5, -2.5, 0.0});

  BinaryReader reader(writer.buffer(), kMagic, kVersion);
  EXPECT_EQ(reader.read_u32(), 42u);
  EXPECT_EQ(reader.read_u64(), 1ull << 50);
  EXPECT_EQ(reader.read_i64(), -1234567);
  EXPECT_DOUBLE_EQ(reader.read_f64(), 3.14159);
  EXPECT_EQ(reader.read_string(), "hello world");
  const auto vec = reader.read_f64_vector();
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_DOUBLE_EQ(vec[0], 1.5);
  EXPECT_DOUBLE_EQ(vec[1], -2.5);
  EXPECT_TRUE(reader.at_end());
}

TEST(Serialize, EmptyStringAndVector) {
  BinaryWriter writer(kMagic, kVersion);
  writer.write_string("");
  writer.write_f64_vector({});
  BinaryReader reader(writer.buffer(), kMagic, kVersion);
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_TRUE(reader.read_f64_vector().empty());
}

TEST(Serialize, RejectsWrongMagic) {
  BinaryWriter writer(kMagic, kVersion);
  EXPECT_THROW(BinaryReader(writer.buffer(), kMagic + 1, kVersion),
               SerializeError);
}

TEST(Serialize, RejectsWrongVersion) {
  BinaryWriter writer(kMagic, kVersion);
  EXPECT_THROW(BinaryReader(writer.buffer(), kMagic, kVersion + 1),
               SerializeError);
}

TEST(Serialize, RejectsTruncatedPayload) {
  BinaryWriter writer(kMagic, kVersion);
  writer.write_u64(7);
  auto data = writer.buffer();
  data.pop_back();
  BinaryReader reader(std::move(data), kMagic, kVersion);
  EXPECT_THROW((void)reader.read_u64(), SerializeError);
}

TEST(Serialize, RejectsLyingVectorLength) {
  BinaryWriter writer(kMagic, kVersion);
  writer.write_u64(1000000);  // claims a huge vector, no payload follows
  BinaryReader reader(writer.buffer(), kMagic, kVersion);
  EXPECT_THROW((void)reader.read_f64_vector(), SerializeError);
}

TEST(Serialize, SaveAndLoadFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_serialize_test.bin";
  BinaryWriter writer(kMagic, kVersion);
  writer.write_string("persisted");
  writer.save(path);

  BinaryReader reader = BinaryReader::load(path, kMagic, kVersion);
  EXPECT_EQ(reader.read_string(), "persisted");
  std::filesystem::remove(path);
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW(BinaryReader::load("/nonexistent/path/file.bin", kMagic,
                                  kVersion),
               SerializeError);
}

TEST(Serialize, SaveCreatesParentDirectories) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "explora_serialize_nested" / "deep";
  const auto path = dir / "file.bin";
  std::filesystem::remove_all(dir.parent_path());
  BinaryWriter writer(kMagic, kVersion);
  writer.write_u32(1);
  writer.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir.parent_path());
}

TEST(Serialize, SaveOntoNonEmptyDirectoryThrowsAndLeavesNoTemp) {
  // The final rename cannot replace a non-empty directory: that failure
  // must surface as SerializeError and the temp file must not linger.
  const auto path = std::filesystem::temp_directory_path() /
                    "explora_serialize_dir_target";
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path / "occupant");
  BinaryWriter writer(kMagic, kVersion);
  writer.write_u32(1);
  EXPECT_THROW(writer.save(path), SerializeError);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path / "occupant"));
  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace explora::common
