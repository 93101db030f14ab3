// Tests for the RIC message frame entry points in oran/wire
// (encode_message_frame / decode_message_frame). Message fixtures live in
// tests/support/wire_fixtures.hpp, shared with test_wire, test_replay and
// the codec property sweeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "oran/wire.hpp"
#include "support/wire_fixtures.hpp"

namespace explora::oran {
namespace {

using testfix::sample_control;
using testfix::sample_report;

TEST(Codec, KpmIndicationRoundTrip) {
  const RicMessage original = make_kpm_indication("e2term", sample_report());
  const RicMessage decoded =
      wire::decode_message_frame(wire::encode_message_frame(original));
  EXPECT_EQ(decoded.type, MessageType::kKpmIndication);
  EXPECT_EQ(decoded.sender, "e2term");
  const auto& report = decoded.kpm().report;
  EXPECT_EQ(report.window_end, 12345);
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    EXPECT_EQ(report.slices[s].tx_bitrate_mbps,
              original.kpm().report.slices[s].tx_bitrate_mbps);
    EXPECT_EQ(report.slices[s].buffer_bytes,
              original.kpm().report.slices[s].buffer_bytes);
  }
}

TEST(Codec, RanControlRoundTrip) {
  const RicMessage original =
      make_ran_control("drl_xapp", sample_control(), 42, 7);
  const RicMessage decoded =
      wire::decode_message_frame(wire::encode_message_frame(original));
  EXPECT_EQ(decoded.type, MessageType::kRanControl);
  EXPECT_EQ(decoded.sender, "drl_xapp");
  EXPECT_EQ(decoded.ran_control().control, sample_control());
  EXPECT_EQ(decoded.ran_control().decision_id, 42u);
  EXPECT_EQ(decoded.ran_control().seq, 7u);
}

TEST(Codec, ControlAckRoundTrip) {
  const RicMessage original = make_ran_control_ack("e2term", 99);
  const RicMessage decoded =
      wire::decode_message_frame(wire::encode_message_frame(original));
  EXPECT_EQ(decoded.type, MessageType::kRanControlAck);
  EXPECT_EQ(decoded.sender, "e2term");
  EXPECT_EQ(decoded.control_ack().seq, 99u);
}

TEST(Codec, EmptyReportRoundTrip) {
  const RicMessage original =
      make_kpm_indication("e2term", netsim::KpiReport{});
  const RicMessage decoded =
      wire::decode_message_frame(wire::encode_message_frame(original));
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    EXPECT_TRUE(decoded.kpm().report.slices[s].tx_bitrate_mbps.empty());
  }
}

/// A KPM frame whose first slice carries `list` as its packed per-UE
/// bitrate list, written field by field so the list may break the codec's
/// contract.
std::vector<std::uint8_t> kpm_frame_with_bitrate_list(
    std::span<const std::uint8_t> list) {
  common::Writer slice;
  slice.bytes_field(1, list);
  common::Writer report;
  report.i64_field(1, 250);
  report.bytes_field(2, slice.buffer());
  common::Writer kpm;
  kpm.bytes_field(1, report.buffer());
  common::Writer frame;
  frame.header(wire::kFrameFormat);
  frame.u64_field(1, static_cast<std::uint64_t>(MessageType::kKpmIndication));
  frame.string_field(2, "gnb");
  frame.bytes_field(3, kpm.buffer());
  return std::move(frame).take();
}

/// `count` packed doubles 0.5, 1.0, ...
std::vector<std::uint8_t> packed_doubles(std::size_t count) {
  std::vector<std::uint8_t> bytes(count * sizeof(double));
  for (std::size_t i = 0; i < count; ++i) {
    const double value = 0.5 * static_cast<double>(i + 1);
    std::memcpy(bytes.data() + i * sizeof(double), &value, sizeof(double));
  }
  return bytes;
}

TEST(Codec, PerUeListAtCapacityDecodes) {
  const RicMessage decoded = wire::decode_message_frame(
      kpm_frame_with_bitrate_list(packed_doubles(netsim::kMaxUesPerSlice)));
  const netsim::PerUeValues& list =
      decoded.kpm().report.slices[0].tx_bitrate_mbps;
  ASSERT_EQ(list.size(), netsim::kMaxUesPerSlice);
  EXPECT_EQ(list[0], 0.5);
  EXPECT_EQ(list[netsim::kMaxUesPerSlice - 1],
            0.5 * static_cast<double>(netsim::kMaxUesPerSlice));
}

TEST(Codec, RejectsPerUeListPastCapacity) {
  EXPECT_THROW((void)wire::decode_message_frame(kpm_frame_with_bitrate_list(
                   packed_doubles(netsim::kMaxUesPerSlice + 1))),
               common::SerializeError);
}

TEST(Codec, RejectsPerUeListOfRaggedLength) {
  std::vector<std::uint8_t> ragged = packed_doubles(2);
  ragged.resize(ragged.size() + 3, 0x7F);
  EXPECT_THROW(
      (void)wire::decode_message_frame(kpm_frame_with_bitrate_list(ragged)),
      common::SerializeError);
}

TEST(Codec, RejectsTruncatedWire) {
  const auto bytes =
      wire::encode_message_frame(make_ran_control("x", sample_control(), 1));
  const auto truncated =
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 3);
  EXPECT_THROW((void)wire::decode_message_frame(truncated),
               common::SerializeError);
}

TEST(Codec, RejectsTrailingGarbage) {
  auto bytes =
      wire::encode_message_frame(make_ran_control("x", sample_control(), 1));
  bytes.push_back(0xFF);
  EXPECT_THROW((void)wire::decode_message_frame(bytes),
               common::SerializeError);
}

TEST(Codec, RejectsOutOfRangeSchedulerPolicy) {
  // Hand-assemble a RanControl frame whose scheduling enum carries a value
  // past kNumSchedulerPolicies - 1. Unlike guessing a byte offset into the
  // encoder's output, this pins the contract directly: out-of-range enum
  // values are rejected wherever they appear in the tagged stream.
  wire::Writer control_body;
  control_body.u64_field(1, 36);  // prbs
  control_body.u64_field(1, 3);
  control_body.u64_field(1, 11);
  control_body.u64_field(2, netsim::kNumSchedulerPolicies);  // out of range
  wire::Writer ran_control;
  ran_control.bytes_field(1, control_body.buffer());
  ran_control.u64_field(2, 1);  // decision_id
  wire::Writer frame;
  frame.header(wire::kFrameFormat);
  frame.u64_field(1, static_cast<std::uint64_t>(MessageType::kRanControl));
  frame.string_field(2, "x");
  frame.bytes_field(4, ran_control.buffer());
  EXPECT_THROW((void)wire::decode_message_frame(frame.buffer()),
               common::SerializeError);
}

TEST(Codec, RejectsMismatchedTypeAndPayload) {
  // Declared type says ACK but the payload alternative present is a
  // RanControl: the frame decodes structurally, then the cross-validation
  // in decode_message_frame must reject it.
  wire::Writer ran_control;
  ran_control.u64_field(2, 5);  // decision_id only
  wire::Writer frame;
  frame.header(wire::kFrameFormat);
  frame.u64_field(1, static_cast<std::uint64_t>(MessageType::kRanControlAck));
  frame.string_field(2, "x");
  frame.bytes_field(4, ran_control.buffer());  // field 4 = ran_control
  EXPECT_THROW((void)wire::decode_message_frame(frame.buffer()),
               common::SerializeError);
}

TEST(Codec, RejectsWrongMagic) {
  auto bytes =
      wire::encode_message_frame(make_ran_control("x", sample_control(), 1));
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)wire::decode_message_frame(bytes),
               common::SerializeError);
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  common::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> junk(rng.index(200));
    for (auto& byte : junk) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    EXPECT_THROW((void)wire::decode_message_frame(junk),
                 common::SerializeError);
  }
}

TEST(Codec, FuzzBitflipsEitherDecodeOrThrow) {
  // Single-bit corruptions of a valid frame must never crash: they either
  // still decode (the flip hit a payload value) or throw cleanly.
  const auto bytes = wire::encode_message_frame(
      make_kpm_indication("e2term", sample_report()));
  for (std::size_t bit = 0; bit < bytes.size() * 8; bit += 7) {
    auto corrupted = bytes;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    try {
      (void)wire::decode_message_frame(corrupted);
    } catch (const common::SerializeError&) {
      // acceptable outcome
    }
  }
}

}  // namespace
}  // namespace explora::oran
