// Tests for sequence-numbered reliable control delivery (oran/reliable):
// monotonic seq assignment, ACK clearing, timeout/retransmission with
// exponential backoff, retry expiry, and the end-to-end apply-exactly-once
// loop with the E2 termination under injected control-plane faults.
#include "oran/reliable.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netsim/scenario.hpp"
#include "oran/e2_term.hpp"
#include "oran/impairments.hpp"
#include "support/counters.hpp"

namespace explora::oran {
namespace {

class RecordingEndpoint final : public RmrEndpoint {
 public:
  explicit RecordingEndpoint(std::string name) : name_(std::move(name)) {}
  std::string_view endpoint_name() const noexcept override { return name_; }
  void on_message(const RicMessage& message) override {
    received.push_back(message);
  }
  std::vector<RicMessage> received;

 private:
  std::string name_;
};

netsim::SlicingControl some_control() {
  netsim::SlicingControl control;
  control.prbs = {36, 3, 11};
  control.scheduling = {netsim::SchedulerPolicy::kProportionalFair,
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kWaterfilling};
  return control;
}

TEST(ReliableControlSender, AssignsMonotonicSequenceNumbers) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint hop("hop");
  router.register_endpoint(hop);
  router.add_route(MessageType::kRanControl, "drl", "hop");
  ReliableControlSender sender({}, router, "drl");

  EXPECT_EQ(sender.send(some_control(), 10), 1u);
  EXPECT_EQ(sender.send(some_control(), 11), 2u);
  ASSERT_EQ(hop.received.size(), 2u);
  EXPECT_EQ(hop.received[0].ran_control().seq, 1u);
  EXPECT_EQ(hop.received[1].ran_control().seq, 2u);
  EXPECT_EQ(hop.received[0].ran_control().decision_id, 10u);
  EXPECT_EQ(sender.in_flight(), 2u);
  testfix::expect_counter(registry.registry(), "oran.reliable.sent", 2);
}

TEST(ReliableControlSender, AckClearsInFlight) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint hop("hop");
  router.register_endpoint(hop);
  router.add_route(MessageType::kRanControl, "drl", "hop");
  ReliableControlSender sender({}, router, "drl");

  const std::uint64_t seq = sender.send(some_control(), 1);
  sender.on_ack(seq);
  EXPECT_EQ(sender.in_flight(), 0u);
  testfix::expect_counter(registry.registry(), "oran.reliable.acked", 1);
  sender.on_ack(99);  // unknown seq: ignored, not a crash
  testfix::expect_counter(registry.registry(), "oran.reliable.acked", 1);
}

TEST(ReliableControlSender, RetransmitsAfterTimeoutWithBackoff) {
  telemetry::ScopedRegistry registry;
  auto retransmissions = [&registry](std::uint64_t expected) {
    testfix::expect_counter(registry.registry(),
                            "oran.reliable.retransmissions", expected);
  };
  RmrRouter router;
  RecordingEndpoint hop("hop");
  router.register_endpoint(hop);
  router.add_route(MessageType::kRanControl, "drl", "hop");
  ReliableControlSender sender(
      {.ack_timeout_ticks = 2, .max_retries = 6, .backoff_factor = 2},
      router, "drl");

  sender.send(some_control(), 1);
  sender.on_tick();
  retransmissions(0);  // 1 tick < timeout 2
  sender.on_tick();
  retransmissions(1);  // first resend at tick 2
  // Backoff doubled the timeout to 4: the next resend needs 4 more ticks.
  sender.on_tick();
  sender.on_tick();
  sender.on_tick();
  retransmissions(1);
  sender.on_tick();
  retransmissions(2);
  ASSERT_EQ(hop.received.size(), 3u);
  EXPECT_EQ(hop.received[2].ran_control().seq, 1u);  // same seq throughout
}

TEST(ReliableControlSender, ExpiresAfterRetryBudget) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint hop("hop");
  router.register_endpoint(hop);
  router.add_route(MessageType::kRanControl, "drl", "hop");
  ReliableControlSender sender(
      {.ack_timeout_ticks = 1, .max_retries = 2, .backoff_factor = 1},
      router, "drl");

  sender.send(some_control(), 1);
  sender.on_tick();  // retry 1
  sender.on_tick();  // retry 2
  testfix::expect_counter(registry.registry(),
                          "oran.reliable.retransmissions", 2);
  sender.on_tick();  // budget exhausted: expire
  testfix::expect_counter(registry.registry(), "oran.reliable.expired", 1);
  EXPECT_EQ(sender.in_flight(), 0u);
  sender.on_tick();  // nothing left to resend
  testfix::expect_counter(registry.registry(),
                          "oran.reliable.retransmissions", 2);
}

TEST(ReliableControlSender, E2TermAcksAndAppliesExactlyOnce) {
  telemetry::ScopedRegistry registry;
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  RmrRouter router;
  E2Termination e2term(*gnb, router);
  router.register_endpoint(e2term);
  RecordingEndpoint drl("drl");
  router.register_endpoint(drl);
  router.add_route(MessageType::kRanControl, "drl", "e2term");
  router.add_route(MessageType::kRanControlAck, "e2term", "drl");

  router.send(make_ran_control("drl", some_control(), 1, /*seq=*/7));
  EXPECT_EQ(e2term.controls_applied(), 1u);
  ASSERT_EQ(drl.received.size(), 1u);
  EXPECT_EQ(drl.received[0].type, MessageType::kRanControlAck);
  EXPECT_EQ(drl.received[0].control_ack().seq, 7u);

  // The retransmission is re-ACKed (its ACK may have been lost) but the
  // control is not applied a second time.
  router.send(make_ran_control("drl", some_control(), 1, /*seq=*/7));
  EXPECT_EQ(e2term.controls_applied(), 1u);
  testfix::expect_counter(registry.registry(),
                          "oran.e2term.duplicate_controls", 1);
  ASSERT_EQ(drl.received.size(), 2u);
  EXPECT_EQ(drl.received[1].control_ack().seq, 7u);
}

TEST(ReliableControlSender, LegacyUnsequencedControlsAreNotAcked) {
  telemetry::ScopedRegistry registry;
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  RmrRouter router;
  E2Termination e2term(*gnb, router);
  router.register_endpoint(e2term);
  RecordingEndpoint drl("drl");
  router.register_endpoint(drl);
  router.add_route(MessageType::kRanControl, "drl", "e2term");
  router.add_route(MessageType::kRanControlAck, "e2term", "drl");

  router.send(make_ran_control("drl", some_control(), 1));  // seq = 0
  router.send(make_ran_control("drl", some_control(), 2));
  EXPECT_EQ(e2term.controls_applied(), 2u);  // applied unconditionally
  testfix::expect_counter(registry.registry(),
                          "oran.e2term.duplicate_controls", 0);
  EXPECT_TRUE(drl.received.empty());  // never ACKed
}

TEST(ReliableControlSender, RecoversFromCertainFirstLoss) {
  // The first transmission of every control is dropped; retries go through
  // after the fault window closes. This is the tight loop version of the
  // chaos sweep's drop points.
  telemetry::ScopedRegistry registry;
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  RmrRouter router;
  E2Termination e2term(*gnb, router);
  router.register_endpoint(e2term);
  RecordingEndpoint drl("drl");
  router.register_endpoint(drl);
  router.add_route(MessageType::kRanControl, "drl", "e2term");
  router.add_route(MessageType::kRanControlAck, "e2term", "drl");
  LinkImpairments& impairments = router.configure_impairments(5);
  impairments.set_policy(MessageType::kRanControl, "*", {.drop = 1.0});

  ReliableControlSender sender(
      {.ack_timeout_ticks = 1, .max_retries = 4, .backoff_factor = 1},
      router, "drl");
  sender.send(some_control(), 1);
  EXPECT_EQ(e2term.controls_applied(), 0u);
  EXPECT_EQ(sender.in_flight(), 1u);

  // Lift the fault and let the retry land.
  impairments.set_policy(MessageType::kRanControl, "*", {});
  sender.on_tick();
  EXPECT_EQ(e2term.controls_applied(), 1u);
  testfix::expect_counter(registry.registry(),
                          "oran.reliable.retransmissions", 1);
  // The ACK was routed to the "drl" endpoint; relay it to the sender the
  // way an owning xApp's on_message would.
  ASSERT_EQ(drl.received.size(), 1u);
  sender.on_ack(drl.received[0].control_ack().seq);
  EXPECT_EQ(sender.in_flight(), 0u);
}

}  // namespace
}  // namespace explora::oran
