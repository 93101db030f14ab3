// Tests for the RIC message frame entry points in oran/wire
// (encode_message_frame / decode_message_frame). Message fixtures live in
// tests/support/wire_fixtures.hpp, shared with test_wire, test_replay and
// the codec property sweeps.
#include <gtest/gtest.h>

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

TEST(Codec, RejectsTruncatedWire) {
  auto bytes =
      wire::encode_message_frame(make_ran_control("x", sample_control(), 1));
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)wire::decode_message_frame(bytes),
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
  wire::write_frame_header(frame);
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
  wire::write_frame_header(frame);
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
