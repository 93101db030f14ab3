// Tests for the deterministic link-impairment model (oran/impairments) and
// its integration with the router's dispatch loop (drop / delay-by-rounds /
// duplicate / reorder fates, per-type registry counters,
// bit-reproducibility).
#include "oran/impairments.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "oran/rmr.hpp"
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

TEST(LinkImpairments, PolicyLookupPrefersExactTarget) {
  LinkImpairments impairments(1);
  impairments.set_policy(MessageType::kRanControl, "*", {.drop = 0.5});
  impairments.set_policy(MessageType::kRanControl, "e2term", {.drop = 0.1});

  const auto* exact =
      impairments.policy_for(MessageType::kRanControl, "e2term");
  ASSERT_NE(exact, nullptr);
  EXPECT_DOUBLE_EQ(exact->drop, 0.1);
  const auto* wildcard =
      impairments.policy_for(MessageType::kRanControl, "other");
  ASSERT_NE(wildcard, nullptr);
  EXPECT_DOUBLE_EQ(wildcard->drop, 0.5);
  EXPECT_EQ(impairments.policy_for(MessageType::kKpmIndication, "e2term"),
            nullptr);
}

TEST(LinkImpairments, CertainDropNeverDelivers) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kRanControl, "*", "sink");
  router.configure_impairments(7).set_policy(MessageType::kRanControl, "*",
                                             {.drop = 1.0});

  for (int i = 0; i < 5; ++i) {
    router.send(make_ran_control("drl", some_control(), 1));
  }
  EXPECT_TRUE(sink.received.empty());
  testfix::expect_counter(registry.registry(),
                          "oran.impairments.dropped.ran_control", 5);
  // Impairment drops are injected faults, not routing errors.
  testfix::expect_counter(registry.registry(), "oran.rmr.dropped_unroutable",
                          0);
}

TEST(LinkImpairments, DelayHoldsForConfiguredRounds) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kRanControl, "drl", "sink");
  router.add_route(MessageType::kKpmIndication, "gnb", "sink");
  router.configure_impairments(7).set_policy(
      MessageType::kRanControl, "*",
      {.delay = 1.0, .delay_rounds = 2});

  router.send(make_ran_control("drl", some_control(), 1));  // round 1, held
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(router.pending_delayed(), 1u);

  router.send(make_kpm_indication("gnb", netsim::KpiReport{}));  // round 2
  ASSERT_EQ(sink.received.size(), 1u);  // the indication only
  EXPECT_EQ(sink.received[0].type, MessageType::kKpmIndication);

  router.send(make_kpm_indication("gnb", netsim::KpiReport{}));  // round 3
  // Released messages re-enter at the back of the queue, behind the
  // message that opened the round.
  ASSERT_EQ(sink.received.size(), 3u);  // indication + released control
  EXPECT_EQ(sink.received[1].type, MessageType::kKpmIndication);
  EXPECT_EQ(sink.received[2].type, MessageType::kRanControl);
  EXPECT_EQ(router.pending_delayed(), 0u);
  testfix::expect_counter(registry.registry(),
                          "oran.impairments.delayed.ran_control", 1);
}

TEST(LinkImpairments, FlushDelayedReleasesEverythingHeld) {
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kRanControl, "*", "sink");
  router.configure_impairments(7).set_policy(
      MessageType::kRanControl, "*",
      {.delay = 1.0, .delay_rounds = 100});

  router.send(make_ran_control("drl", some_control(), 1));
  router.send(make_ran_control("drl", some_control(), 2));
  EXPECT_EQ(router.pending_delayed(), 2u);
  router.flush_delayed();
  EXPECT_EQ(router.pending_delayed(), 0u);
  ASSERT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(sink.received[0].ran_control().decision_id, 1u);
  EXPECT_EQ(sink.received[1].ran_control().decision_id, 2u);
}

TEST(LinkImpairments, DuplicateDeliversNowAndNextRound) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kRanControl, "drl", "sink");
  router.add_route(MessageType::kKpmIndication, "gnb", "sink");
  router.configure_impairments(7).set_policy(MessageType::kRanControl, "*",
                                             {.duplicate = 1.0});

  router.send(make_ran_control("drl", some_control(), 1));
  EXPECT_EQ(sink.received.size(), 1u);  // original delivered immediately

  router.send(make_kpm_indication("gnb", netsim::KpiReport{}));
  // The duplicate copy re-enters behind the message that opened the round.
  ASSERT_EQ(sink.received.size(), 3u);  // indication + duplicate copy
  EXPECT_EQ(sink.received[1].type, MessageType::kKpmIndication);
  EXPECT_EQ(sink.received[2].type, MessageType::kRanControl);
  EXPECT_EQ(sink.received[2].ran_control().decision_id, 1u);
  testfix::expect_counter(registry.registry(),
                          "oran.impairments.duplicated.ran_control", 1);
}

TEST(LinkImpairments, ReorderFallsBehindQueuedTraffic) {
  telemetry::ScopedRegistry registry;
  RmrRouter router;
  RecordingEndpoint first("first");
  RecordingEndpoint second("second");
  router.register_endpoint(first);
  router.register_endpoint(second);
  // One send fans out to both targets; only the delivery to "first" is
  // reordered, so it must arrive after the in-order delivery to "second".
  router.add_route(MessageType::kRanControl, "drl", "first");
  router.add_route(MessageType::kRanControl, "drl", "second");
  router.configure_impairments(7).set_policy(MessageType::kRanControl,
                                             "first", {.reorder = 1.0});

  router.send(make_ran_control("drl", some_control(), 1));
  EXPECT_EQ(first.received.size(), 1u);
  EXPECT_EQ(second.received.size(), 1u);
  testfix::expect_counter(registry.registry(),
                          "oran.impairments.reordered.ran_control", 1);
}

TEST(LinkImpairments, SameSeedSamePolicyIsBitReproducible) {
  auto run = [](std::uint64_t seed) {
    RmrRouter router;
    RecordingEndpoint sink("sink");
    router.register_endpoint(sink);
    router.add_route(MessageType::kRanControl, "*", "sink");
    router.configure_impairments(seed).set_policy(
        MessageType::kRanControl, "*",
        {.drop = 0.3, .delay = 0.2, .delay_rounds = 1, .duplicate = 0.1});
    for (std::uint64_t i = 0; i < 200; ++i) {
      router.send(make_ran_control("drl", some_control(), i));
    }
    router.flush_delayed();
    std::vector<std::uint64_t> ids;
    ids.reserve(sink.received.size());
    for (const auto& m : sink.received) {
      ids.push_back(m.ran_control().decision_id);
    }
    return ids;
  };
  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // a different seed must change the fault pattern
  // Faults actually fired (the policy is far from a perfect link).
  EXPECT_LT(a.size(), 220u);
}

TEST(LinkImpairments, ReinjectedDeliveriesAreNotReimpaired) {
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kRanControl, "*", "sink");
  // Every routed delivery is delayed; if released messages were re-impaired
  // they would be re-held forever and flush_delayed would never converge.
  router.configure_impairments(7).set_policy(
      MessageType::kRanControl, "*", {.delay = 1.0, .delay_rounds = 1});
  router.send(make_ran_control("drl", some_control(), 1));
  EXPECT_TRUE(sink.received.empty());
  router.flush_delayed();
  EXPECT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(router.pending_delayed(), 0u);
}

}  // namespace
}  // namespace explora::oran
