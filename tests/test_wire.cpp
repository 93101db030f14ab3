// Tests for the versioned tagged wire format (oran/wire): primitive
// encodings, field-list round-trips, the JSON view, unknown-field skip
// (minor-version growth), major-version rejection — including committed
// binary fixtures under tests/golden/ — and truncation/corruption sweeps
// that must never crash.
#include "oran/wire.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "oran/data_repository.hpp"
#include "support/wire_fixtures.hpp"

namespace explora::oran::wire {

// Test-only message types declared directly in the wire namespace so the
// visitors' unqualified wire_fields calls resolve to them via ADL —
// exactly how production types plug in. TestV2 extends TestV1 with every
// field kind the format supports; ids 1 and 2 are shared, so a TestV1
// decoder reading TestV2 bytes exercises unknown-field skip over all
// three wire types.
struct TestV1 {
  std::uint64_t count = 0;
  std::string name;

  friend bool operator==(const TestV1&, const TestV1&) = default;
};

struct TestV2 {
  std::uint64_t count = 0;
  std::string name;
  double extra = 0.0;
  std::vector<std::uint8_t> payload;
  std::int64_t offset = 0;
  bool flag = false;
  std::vector<double> values;

  friend bool operator==(const TestV2&, const TestV2&) = default;
};

// Ten repeated fields, ids 1-10: more distinct ids than the decoder's
// inline occurrence table holds, so the last ones count on its heap spill.
struct TestWide {
  std::array<std::array<std::uint32_t, 2>, 10> columns{};

  friend bool operator==(const TestWide&, const TestWide&) = default;
};

template <typename V>
void wire_fields(V& v, TestWide& t) {
  for (std::uint32_t i = 0; i < t.columns.size(); ++i) {
    v.u32_array(i + 1, "column", t.columns[i]);
  }
}

template <typename V>
void wire_fields(V& v, TestV1& t) {
  v.u64(1, "count", t.count);
  v.str(2, "name", t.name);
}

template <typename V>
void wire_fields(V& v, TestV2& t) {
  v.u64(1, "count", t.count);
  v.str(2, "name", t.name);
  v.f64(3, "extra", t.extra);
  v.blob(4, "payload", t.payload);
  v.i64(5, "offset", t.offset);
  v.boolean(6, "flag", t.flag);
  v.f64_list(7, "values", t.values);
}

namespace {

// ---------------------------------------------------------------------------
// Primitive encodings.
// ---------------------------------------------------------------------------

TEST(WirePrimitives, VarintRoundTripsEdgeValues) {
  const std::uint64_t cases[] = {
      0,    1,    127,  128,          300,

      16383, 16384, (1ull << 35) - 1, 1ull << 63,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t value : cases) {
    Writer writer;
    writer.varint(value);
    Reader reader(writer.buffer());
    EXPECT_EQ(reader.varint(), value);
    EXPECT_TRUE(reader.at_end());
  }
}

TEST(WirePrimitives, VarintUsesMinimalKnownEncodings) {
  Writer writer;
  writer.varint(300);
  ASSERT_EQ(writer.size(), 2u);
  EXPECT_EQ(writer.buffer()[0], 0xAC);
  EXPECT_EQ(writer.buffer()[1], 0x02);

  Writer max_writer;
  max_writer.varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(max_writer.size(), 10u);  // the longest legal varint
}

TEST(WirePrimitives, VarintRejectsTruncationAndOverlength) {
  // A lone continuation byte promises more input than exists.
  const std::uint8_t truncated[] = {0x80};
  Reader cut{std::span<const std::uint8_t>(truncated)};
  EXPECT_THROW((void)cut.varint(), SerializeError);

  // Eleven continuation bytes exceed the 10-byte maximum for 64 bits.
  std::vector<std::uint8_t> overlong(11, 0xFF);
  overlong.push_back(0x00);
  Reader long_reader{std::span<const std::uint8_t>(overlong)};
  EXPECT_THROW((void)long_reader.varint(), SerializeError);
}

TEST(WirePrimitives, ZigzagRoundTripsFullRange) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -2,
                                12345,
                                -12345,
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t value : cases) {
    Writer writer;
    writer.zigzag(value);
    Reader reader(writer.buffer());
    EXPECT_EQ(reader.zigzag(), value);
  }
  // Small magnitudes must stay small — that is zigzag's purpose.
  Writer writer;
  writer.zigzag(-1);
  EXPECT_EQ(writer.size(), 1u);
}

TEST(WirePrimitives, TagValidatesFieldIdAndWireType) {
  // Field id 0 is reserved (never emitted by the Writer).
  const std::uint8_t zero_id[] = {0x00};
  Reader zero{std::span<const std::uint8_t>(zero_id)};
  EXPECT_THROW((void)zero.tag(), SerializeError);

  // Wire types 3..7 do not exist.
  const std::uint8_t bad_type[] = {0x0B};  // field 1, wire type 3
  Reader bad{std::span<const std::uint8_t>(bad_type)};
  EXPECT_THROW((void)bad.tag(), SerializeError);
}

TEST(WirePrimitives, BytesLengthIsBoundsChecked) {
  Writer writer;
  writer.varint(1000);  // claims 1000 bytes; none follow
  Reader reader(writer.buffer());
  EXPECT_THROW((void)reader.bytes(), SerializeError);
}

// ---------------------------------------------------------------------------
// Frame round-trips over every field kind and every production type.
// ---------------------------------------------------------------------------

TEST(WireFrames, AllFieldKindsRoundTrip) {
  TestV2 original;
  original.count = 77;
  original.name = "slice";
  original.extra = -2.75;
  original.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  original.offset = -123456789;
  original.flag = true;
  original.values = {1.0, -0.5, 3.25};
  const auto decoded = decode_frame<TestV2>(encode_frame(original));
  EXPECT_EQ(decoded, original);
}

TEST(WireFrames, ProductionTypesRoundTripUnderRandomValues) {
  common::Rng rng(2024);
  for (std::size_t trial = 0; trial < testfix::fuzz_iters(); ++trial) {
    const RicMessage message = testfix::random_message(rng);
    EXPECT_EQ(decode_message_frame(encode_message_frame(message)), message);

    KpmIndication kpm{testfix::random_report(rng)};
    EXPECT_EQ(decode_frame<KpmIndication>(encode_frame(kpm)), kpm);
  }

  ExplanationRecord explanation;
  explanation.decision_id = 17;
  explanation.proposed = testfix::sample_control();
  explanation.enforced = testfix::sample_control();
  explanation.enforced.prbs = {10, 20, 30};
  explanation.replaced = true;
  explanation.explanation = "shield replaced an mMTC-starving action";
  EXPECT_EQ(decode_frame<ExplanationRecord>(encode_frame(explanation)),
            explanation);

  DegradationRecord degradation;
  degradation.phase = DegradationRecord::Phase::kRecover;
  degradation.detected_at = -42;
  degradation.missed_windows = 3;
  degradation.tier_from = 0;
  degradation.tier_to = 2;
  degradation.detail = "KPM gap";
  EXPECT_EQ(decode_frame<DegradationRecord>(encode_frame(degradation)),
            degradation);
}

TEST(WireFrames, RepeatedScalarFieldIsLastWins) {
  auto frame = encode_frame(TestV1{.count = 5, .name = "a"});
  // Append a second occurrence of field 1 with a different value.
  frame.push_back(0x08);
  frame.push_back(9);
  const auto decoded = decode_frame<TestV1>(frame);
  EXPECT_EQ(decoded.count, 9u);
  EXPECT_EQ(decoded.name, "a");
}

TEST(WireFrames, RepeatedFieldsPastTheInlineTableFillInArrivalOrder) {
  // Interleave the ten fields' occurrences: 1..10 for slot 0, then 1..10
  // for slot 1.
  Writer writer;
  writer.header(kFrameFormat);
  TestWide expected;
  for (std::uint32_t slot = 0; slot < 2; ++slot) {
    for (std::uint32_t i = 0; i < expected.columns.size(); ++i) {
      expected.columns[i][slot] = 100 * (i + 1) + slot;
      writer.u64_field(i + 1, expected.columns[i][slot]);
    }
  }
  EXPECT_EQ(decode_frame<TestWide>(writer.buffer()), expected);
  EXPECT_EQ(decode_frame<TestWide>(encode_frame(expected)), expected);
  // A third occurrence of a spilled field overflows its array.
  writer.u64_field(10, 7);
  EXPECT_THROW((void)decode_frame<TestWide>(writer.buffer()), SerializeError);
}

// ---------------------------------------------------------------------------
// JSON view: one field list drives both representations.
// ---------------------------------------------------------------------------

TEST(WireJson, RendersEveryFieldKindInListOrder) {
  TestV2 value;
  value.count = 3;
  value.name = "ue\"7\"";
  value.extra = 1.5;
  value.payload = {0xDE, 0xAD};
  value.offset = -9;
  value.flag = true;
  value.values = {0.5, -1.0};
  EXPECT_EQ(to_json(value),
            "{\"count\": 3, \"name\": \"ue\\\"7\\\"\", \"extra\": 1.5, "
            "\"payload\": \"dead\", \"offset\": -9, \"flag\": true, "
            "\"values\": [0.5, -1]}");
}

TEST(WireJson, RendersRicMessageWithActivePayloadOnly) {
  const std::string json =
      to_json(make_ran_control_ack("e2term", 99));
  EXPECT_NE(json.find("\"sender\": \"e2term\""), std::string::npos);
  EXPECT_NE(json.find("\"control_ack\": {\"seq\": 99}"), std::string::npos);
  // Inactive variant alternatives must not appear.
  EXPECT_EQ(json.find("\"kpm\""), std::string::npos);
  EXPECT_EQ(json.find("\"ran_control\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Version skew: minor growth is free, major mismatch is rejected.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  const std::string path = std::string(EXPLORA_GOLDEN_DIR) + "/" + name;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << "missing golden fixture " << path;
  std::vector<std::uint8_t> bytes;
  if (file != nullptr) {
    std::uint8_t chunk[256];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + got);
    }
    std::fclose(file);
  }
  return bytes;
}

TEST(WireVersioning, FutureMinorWithUnknownFieldsDecodes) {
  // Synthesized in-process: a v1 frame claiming a future minor version,
  // carrying fields 3..7 this TestV1 decoder has never heard of (varint,
  // fixed64 and bytes wire types all represented).
  TestV2 future;
  future.count = 12;
  future.name = "drl_xapp";
  future.extra = 4.25;
  future.payload = {1, 2, 3};
  future.offset = -5;
  future.flag = true;
  future.values = {9.0};
  auto frame = encode_frame(future);
  frame[5] = kWireMinor + 3;  // bump the minor version byte
  const auto decoded = decode_frame<TestV1>(frame);
  EXPECT_EQ(decoded, (TestV1{.count = 12, .name = "drl_xapp"}));
}

TEST(WireVersioning, CommittedMinorSkewFixtureDecodes) {
  // tests/golden/wire_v1_minor7_ack.bin: written by a hypothetical v1.7
  // encoder — a RanControlAck message plus an unknown bytes field (id 9)
  // and an unknown varint field (id 15). Committed bytes pin the format:
  // if the grammar drifts, this fixture stops decoding.
  const auto bytes = read_fixture("wire_v1_minor7_ack.bin");
  ASSERT_FALSE(bytes.empty());
  const RicMessage message = decode_message_frame(bytes);
  EXPECT_EQ(message.type, MessageType::kRanControlAck);
  EXPECT_EQ(message.sender, "e2term");
  EXPECT_EQ(message.control_ack().seq, 99u);
}

TEST(WireVersioning, MajorMismatchIsRejectedNamingBothVersions) {
  auto frame = encode_message_frame(make_ran_control_ack("x", 1));
  frame[4] = kWireMajor + 1;
  try {
    (void)decode_message_frame(frame);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("major version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("major version 1"), std::string::npos) << what;
  }
}

TEST(WireVersioning, CommittedMajorRejectFixtureThrows) {
  const auto bytes = read_fixture("wire_major2_reject.bin");
  ASSERT_FALSE(bytes.empty());
  try {
    (void)decode_message_frame(bytes);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("major version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("major version 1"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Hostile-input sweeps: malformed bytes must throw SerializeError or
// decode cleanly — never crash or read out of bounds (the asan/ubsan CI
// legs run these same tests under sanitizers).
// ---------------------------------------------------------------------------

TEST(WireHostileInput, EverySingleByteTruncationIsHandled) {
  const auto frame =
      encode_message_frame(make_kpm_indication("e2term",
                                               testfix::sample_report()));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> cut(frame.data(), len);
    try {
      (void)decode_message_frame(cut);
      // A cut landing exactly on a field boundary decodes to a prefix of
      // the message — acceptable; only crashing is not.
    } catch (const SerializeError&) {
    }
  }
}

TEST(WireHostileInput, SeededByteCorruptionSweepIsHandled) {
  common::Rng rng(4242);
  const std::size_t iters = testfix::fuzz_iters(200);
  for (std::size_t trial = 0; trial < iters; ++trial) {
    auto frame = encode_message_frame(testfix::random_message(rng));
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      frame[rng.index(frame.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      (void)decode_message_frame(frame);
    } catch (const SerializeError&) {
    }
  }
}

}  // namespace
}  // namespace explora::oran::wire
