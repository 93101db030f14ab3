// Unit tests for the UE buffer model (netsim/ue).
#include "netsim/ue.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "support/ue_step.hpp"

namespace explora::netsim {
namespace {

/// Scripted traffic source for deterministic buffer tests.
class ScriptedSource final : public TrafficSource {
 public:
  explicit ScriptedSource(std::vector<ArrivalBatch> script)
      : script_(std::move(script)) {}
  ArrivalBatch arrivals(Tick /*now*/) override {
    if (cursor_ >= script_.size()) return {};
    return script_[cursor_++];
  }
  double offered_bps() const noexcept override { return 0.0; }

 private:
  std::vector<ArrivalBatch> script_;
  std::size_t cursor_ = 0;
};

Ue make_ue(std::vector<ArrivalBatch> script,
           std::uint64_t buffer_capacity = 1'000'000) {
  ChannelConfig config;
  config.fading_enabled = false;
  return Ue(0, Slice::kEmbb, UeChannel(800.0, config, common::Rng(1)),
            std::make_unique<ScriptedSource>(std::move(script)),
            buffer_capacity);
}

TEST(Ue, StartsEmpty) {
  Ue ue = make_ue({});
  EXPECT_EQ(ue.buffer_bytes(), 0u);
  EXPECT_FALSE(ue.has_data());
}

TEST(Ue, ArrivalsFillBuffer) {
  Ue ue = make_ue({{.bytes = 3000, .packets = 2}});
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.buffer_bytes(), 3000u);
  EXPECT_TRUE(ue.has_data());
}

TEST(Ue, ServeDrainsWholePackets) {
  Ue ue = make_ue({{.bytes = 3000, .packets = 2}});  // 2 x 1500 B
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.serve(1500), 1500u);
  EXPECT_EQ(ue.buffer_bytes(), 1500u);
  const auto counters = ue.harvest_window();
  EXPECT_EQ(counters.tx_bytes, 1500u);
  EXPECT_EQ(counters.tx_packets, 1u);
}

TEST(Ue, ServePartialPacketCountsBytesNotPacket) {
  Ue ue = make_ue({{.bytes = 1500, .packets = 1}});
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.serve(700), 700u);
  EXPECT_EQ(ue.buffer_bytes(), 800u);
  auto counters = ue.harvest_window();
  EXPECT_EQ(counters.tx_bytes, 700u);
  EXPECT_EQ(counters.tx_packets, 0u);  // packet not yet complete
  // Finish the packet.
  EXPECT_EQ(ue.serve(10000), 800u);
  counters = ue.harvest_window();
  EXPECT_EQ(counters.tx_packets, 1u);
}

TEST(Ue, ServeMoreThanBuffered) {
  Ue ue = make_ue({{.bytes = 1000, .packets = 1}});
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.serve(5000), 1000u);
  EXPECT_EQ(ue.buffer_bytes(), 0u);
  EXPECT_FALSE(ue.has_data());
}

TEST(Ue, ServeZeroIsNoOp) {
  Ue ue = make_ue({{.bytes = 1000, .packets = 1}});
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.serve(0), 0u);
  EXPECT_EQ(ue.buffer_bytes(), 1000u);
}

TEST(Ue, OverflowDropsArrivals) {
  Ue ue = make_ue({{.bytes = 3000, .packets = 2}}, /*buffer_capacity=*/2000);
  testfix::step_tti(ue, 0);
  EXPECT_EQ(ue.buffer_bytes(), 1500u);  // second packet dropped
  const auto counters = ue.harvest_window();
  EXPECT_EQ(counters.dropped_bytes, 1500u);
}

TEST(Ue, HarvestResetsCounters) {
  Ue ue = make_ue({{.bytes = 1500, .packets = 1}});
  testfix::step_tti(ue, 0);
  (void)ue.serve(1500);
  (void)ue.harvest_window();
  const auto counters = ue.harvest_window();
  EXPECT_EQ(counters.tx_bytes, 0u);
  EXPECT_EQ(counters.tx_packets, 0u);
  EXPECT_EQ(counters.dropped_bytes, 0u);
}

TEST(Ue, BufferPersistsAcrossWindows) {
  Ue ue = make_ue({{.bytes = 1500, .packets = 1}});
  testfix::step_tti(ue, 0);
  (void)ue.harvest_window();
  EXPECT_EQ(ue.buffer_bytes(), 1500u);  // unserved data survives harvest
}

TEST(Ue, MultipleArrivalBatches) {
  Ue ue = make_ue({
      {.bytes = 1500, .packets = 1},
      {.bytes = 250, .packets = 2},  // 2 x 125 B
      {},
  });
  testfix::step_tti(ue, 0);
  testfix::step_tti(ue, 1);
  testfix::step_tti(ue, 2);
  EXPECT_EQ(ue.buffer_bytes(), 1750u);
  // Head-of-line order: 1500 first, then 125 + 125.
  EXPECT_EQ(ue.serve(1500 + 125), 1625u);
  const auto counters = ue.harvest_window();
  EXPECT_EQ(counters.tx_packets, 2u);
}

TEST(Ue, SliceAndIdAccessors) {
  ChannelConfig config;
  config.fading_enabled = false;
  Ue ue(7, Slice::kUrllc, UeChannel(500.0, config, common::Rng(2)),
        std::make_unique<ScriptedSource>(std::vector<ArrivalBatch>{}));
  EXPECT_EQ(ue.id(), 7u);
  EXPECT_EQ(ue.slice(), Slice::kUrllc);
}

}  // namespace
}  // namespace explora::netsim
