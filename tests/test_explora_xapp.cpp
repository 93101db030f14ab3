// Integration tests for the EXPLORA xApp on the RMR path (explora/xapp):
// graph construction from live messages, interposition, steering and
// explanation archiving.
#include "explora/xapp.hpp"

#include <gtest/gtest.h>

#include "oran/rmr.hpp"
#include "support/counters.hpp"

namespace explora::core {
namespace {

netsim::SlicingControl control(std::uint32_t embb, std::uint32_t mmtc,
                               std::uint32_t urllc, int sched = 0) {
  netsim::SlicingControl out;
  out.prbs = {embb, mmtc, urllc};
  out.scheduling = {static_cast<netsim::SchedulerPolicy>(sched),
                    static_cast<netsim::SchedulerPolicy>(sched),
                    static_cast<netsim::SchedulerPolicy>(sched)};
  return out;
}

netsim::KpiReport report(double bitrate, double packets, double buffer) {
  netsim::KpiReport out;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    out.slices[s].tx_bitrate_mbps = {bitrate};
    out.slices[s].tx_packets = {packets};
    out.slices[s].buffer_bytes = {buffer};
  }
  return out;
}

/// Captures what EXPLORA forwards to the (stand-in) E2 termination.
class E2Sink final : public oran::RmrEndpoint {
 public:
  std::string_view endpoint_name() const noexcept override { return "e2term"; }
  void on_message(const oran::RicMessage& message) override {
    controls.push_back(message.ran_control().control);
  }
  std::vector<netsim::SlicingControl> controls;
};

struct Pipeline {
  /// First member: outlives every component that counts into it.
  telemetry::ScopedRegistry registry;
  oran::RmrRouter router;
  oran::DataRepository repo;
  E2Sink sink;
  std::unique_ptr<ExploraXapp> xapp;

  explicit Pipeline(ExploraXapp::Config config = {}) {
    config.reports_per_decision = 2;  // small windows for tests
    xapp = std::make_unique<ExploraXapp>(config, router, &repo);
    router.register_endpoint(*xapp);
    router.register_endpoint(sink);
    router.register_endpoint(repo);
    router.add_route(oran::MessageType::kRanControl, "drl", "explora_xapp");
    router.add_route(oran::MessageType::kRanControl, "explora_xapp",
                     "e2term");
    router.add_route(oran::MessageType::kKpmIndication, "e2term",
                     "explora_xapp");
  }

  void indication(const netsim::KpiReport& kpi) {
    router.send(oran::make_kpm_indication("e2term", kpi));
  }
  void drl_control(const netsim::SlicingControl& action,
                   std::uint64_t id) {
    router.send(oran::make_ran_control("drl", action, id));
  }
  void expect_counter(std::string_view name, std::uint64_t expected) {
    testfix::expect_counter(registry.registry(), name, expected);
  }
};

TEST(ExploraXapp, ForwardsControlsWhenObservingOnly) {
  Pipeline pipe;
  pipe.drl_control(control(36, 3, 11), 1);
  ASSERT_EQ(pipe.sink.controls.size(), 1u);
  EXPECT_EQ(pipe.sink.controls[0], control(36, 3, 11));
  pipe.expect_counter("explora.xapp.controls_seen", 1);
  EXPECT_EQ(pipe.xapp->controls_replaced(), 0u);
}

TEST(ExploraXapp, BuildsGraphFromMessageStream) {
  Pipeline pipe;
  pipe.drl_control(control(36, 3, 11), 1);
  pipe.indication(report(4, 10, 100));
  pipe.indication(report(6, 12, 200));
  pipe.drl_control(control(12, 3, 35), 2);
  pipe.indication(report(2, 10, 400));
  pipe.indication(report(3, 12, 500));
  pipe.drl_control(control(36, 3, 11), 3);

  const AttributedGraph& graph = pipe.xapp->graph();
  EXPECT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.edge_visits(control(36, 3, 11), control(12, 3, 35)), 1u);
  EXPECT_EQ(graph.edge_visits(control(12, 3, 35), control(36, 3, 11)), 1u);
  const ActionNode* node = graph.find(control(36, 3, 11));
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->samples, 2u);
  EXPECT_DOUBLE_EQ(
      node->attribute_mean(netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb),
      5.0);
}

TEST(ExploraXapp, IndicationsBeforeFirstControlAreIgnored) {
  Pipeline pipe;
  pipe.indication(report(1, 1, 1));
  pipe.indication(report(1, 1, 1));
  EXPECT_EQ(pipe.xapp->graph().node_count(), 0u);
  EXPECT_TRUE(pipe.xapp->tracker().events().empty());
}

TEST(ExploraXapp, TracksTransitionsPerDecisionWindow) {
  Pipeline pipe;
  pipe.drl_control(control(36, 3, 11), 1);
  pipe.indication(report(4, 0, 0));
  pipe.indication(report(4, 0, 0));
  pipe.drl_control(control(36, 3, 11, /*sched=*/1), 2);  // Same-PRB
  pipe.indication(report(8, 0, 0));
  pipe.indication(report(8, 0, 0));
  pipe.drl_control(control(12, 3, 35, 1), 3);  // Same-Sched

  const auto& events = pipe.xapp->tracker().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cls, TransitionClass::kSamePrb);
  EXPECT_DOUBLE_EQ(events[0].kpi_delta(netsim::Kpi::kTxBitrate), 12.0);
}

TEST(ExploraXapp, ArchivesExplanationRecords) {
  Pipeline pipe;
  pipe.drl_control(control(36, 3, 11), 7);
  ASSERT_EQ(pipe.repo.explanations().size(), 1u);
  const auto& record = pipe.repo.explanations()[0];
  EXPECT_EQ(record.decision_id, 7u);
  EXPECT_FALSE(record.replaced);
  EXPECT_FALSE(record.explanation.empty());
}

TEST(ExploraXapp, SteeringReplacesActionOnLiveStream) {
  ExploraXapp::Config config;
  ActionSteering::Config steering;
  steering.strategy = SteeringStrategy::kMaxReward;
  steering.observation_window = 2;
  config.steering = steering;
  Pipeline pipe(config);

  // Teach the graph: `strong` yields bitrate 8, `weak` yields 1.
  const auto strong = control(42, 3, 5);
  const auto weak = control(6, 9, 35);
  pipe.drl_control(strong, 1);
  pipe.indication(report(8, 0, 0));
  pipe.indication(report(8, 0, 0));
  pipe.drl_control(weak, 2);
  pipe.indication(report(1, 0, 0));
  pipe.indication(report(1, 0, 0));
  pipe.drl_control(strong, 3);
  pipe.indication(report(8, 0, 0));
  pipe.indication(report(8, 0, 0));

  // Now the agent proposes `weak` again; expected reward (1) is below the
  // recent average, and `strong` is a known first-hop alternative.
  pipe.drl_control(weak, 4);
  ASSERT_EQ(pipe.sink.controls.size(), 4u);
  EXPECT_EQ(pipe.sink.controls[3], strong);
  EXPECT_EQ(pipe.xapp->controls_replaced(), 1u);
  EXPECT_TRUE(pipe.repo.explanations()[3].replaced);
  EXPECT_EQ(pipe.repo.explanations()[3].proposed, weak);
  EXPECT_EQ(pipe.repo.explanations()[3].enforced, strong);
  // The graph must record the *enforced* action as current, so the next
  // edge originates from `strong`.
  pipe.drl_control(weak, 5);
  EXPECT_GE(pipe.xapp->graph().edge_visits(strong, strong) +
                pipe.xapp->graph().edge_visits(strong, weak),
            1u);
}

TEST(ExploraXapp, ExplainSynthesizesKnowledge) {
  Pipeline pipe;
  // Alternate two actions with distinct KPI regimes for several windows.
  const auto a = control(42, 3, 5);
  const auto b = control(6, 9, 35);
  double bitrate = 2.0;
  for (int i = 0; i < 12; ++i) {
    pipe.drl_control(i % 2 == 0 ? a : b, static_cast<std::uint64_t>(i));
    bitrate = i % 2 == 0 ? 8.0 : 2.0;
    pipe.indication(report(bitrate, 10, 100));
    pipe.indication(report(bitrate, 10, 100));
  }
  const DistilledKnowledge knowledge = pipe.xapp->explain();
  EXPECT_FALSE(knowledge.summary_text.empty());
  // Only Same-Sched transitions were shown (PRBs change, schedulers equal).
  const auto& same_sched = knowledge.summaries[static_cast<std::size_t>(
      TransitionClass::kSameSched)];
  EXPECT_EQ(same_sched.count, 11u);
}

TEST(ExploraXapp, ShieldBlocksForbiddenActionsOnLiveStream) {
  ExploraXapp::Config config;
  netsim::SlicingControl fallback = control(18, 15, 17);
  ActionShield shield(fallback);
  shield.add_rule(ActionShield::min_prbs_rule(netsim::Slice::kUrllc, 10));
  config.shield = std::move(shield);
  Pipeline pipe(config);

  pipe.drl_control(control(42, 3, 5), 1);  // URLLC 5 < 10 -> blocked
  ASSERT_EQ(pipe.sink.controls.size(), 1u);
  EXPECT_EQ(pipe.sink.controls[0], fallback);
  EXPECT_EQ(pipe.xapp->controls_replaced(), 1u);
  EXPECT_TRUE(pipe.xapp->shield_enabled());
  EXPECT_EQ(pipe.xapp->shield().blocked(), 1u);
  EXPECT_TRUE(pipe.repo.explanations()[0].replaced);
  EXPECT_NE(pipe.repo.explanations()[0].explanation.find("shield"),
            std::string::npos);

  pipe.drl_control(control(18, 15, 17), 2);  // compliant -> forwarded
  EXPECT_EQ(pipe.sink.controls[1], control(18, 15, 17));
  EXPECT_EQ(pipe.xapp->controls_replaced(), 1u);
}

TEST(ExploraXapp, SteeringAccessorRequiresEnabledSteering) {
  Pipeline pipe;
  EXPECT_FALSE(pipe.xapp->steering_enabled());
  EXPECT_DEATH((void)pipe.xapp->steering(), "");
}

// ---------------------------------------------------------------------------
// Degraded-mode watchdog + reliable-delivery resilience
// ---------------------------------------------------------------------------

netsim::KpiReport report_at(netsim::Tick window_end, double bitrate) {
  netsim::KpiReport out = report(bitrate, 10, 100);
  out.window_end = window_end;
  return out;
}

TEST(ExploraXapp, KpmGapEntersDegradedModeAndArchives) {
  ExploraXapp::Config config;
  config.expected_report_period = 25;
  config.recovery_reports = 2;
  Pipeline pipe(config);

  pipe.drl_control(control(36, 3, 11), 1);
  pipe.indication(report_at(25, 4));
  pipe.indication(report_at(50, 4));   // window of 2 finalized
  pipe.indication(report_at(75, 4));   // pending partial window
  EXPECT_FALSE(pipe.xapp->degraded());

  // Two indications lost: next window_end jumps 75 TTIs instead of 25.
  pipe.indication(report_at(150, 4));
  EXPECT_TRUE(pipe.xapp->degraded());
  EXPECT_EQ(pipe.xapp->degradation_events(), 1u);
  pipe.expect_counter("explora.xapp.indications_missed", 2);
  pipe.expect_counter("explora.xapp.reports_discarded", 1);  // partial window
  ASSERT_EQ(pipe.repo.degradations().size(), 1u);
  EXPECT_EQ(pipe.repo.degradations()[0].phase,
            oran::DegradationRecord::Phase::kEnter);
  EXPECT_EQ(pipe.repo.degradations()[0].missed_windows, 2u);
  EXPECT_EQ(pipe.repo.degradations()[0].detected_at, 150);

  // While degraded, indications do not feed the graph.
  const ActionNode* node = pipe.xapp->graph().find(control(36, 3, 11));
  ASSERT_NE(node, nullptr);
  const std::uint64_t samples_before = node->samples;

  // Recovery: `recovery_reports` consecutive in-sequence indications. The
  // report completing the streak is processed normally again.
  pipe.indication(report_at(175, 4));
  EXPECT_FALSE(pipe.xapp->degraded());
  ASSERT_EQ(pipe.repo.degradations().size(), 2u);
  EXPECT_EQ(pipe.repo.degradations()[1].phase,
            oran::DegradationRecord::Phase::kRecover);
  EXPECT_EQ(pipe.xapp->graph().find(control(36, 3, 11))->samples,
            samples_before + 1);
}

TEST(ExploraXapp, RepeatedGapWhileDegradedRestartsRecovery) {
  ExploraXapp::Config config;
  config.expected_report_period = 25;
  config.recovery_reports = 2;
  Pipeline pipe(config);

  pipe.drl_control(control(36, 3, 11), 1);
  pipe.indication(report_at(25, 4));
  pipe.indication(report_at(100, 4));  // gap -> degraded, streak 1
  EXPECT_TRUE(pipe.xapp->degraded());
  pipe.indication(report_at(175, 4));  // another gap: streak restarts at 1
  EXPECT_TRUE(pipe.xapp->degraded());
  EXPECT_EQ(pipe.xapp->degradation_events(), 1u);  // still one episode
  pipe.indication(report_at(200, 4));  // streak 2 -> recovered
  EXPECT_FALSE(pipe.xapp->degraded());
}

TEST(ExploraXapp, InfersReportPeriodWhenUnconfigured) {
  Pipeline pipe;  // expected_report_period = 0: infer from spacing
  pipe.drl_control(control(36, 3, 11), 1);
  pipe.indication(report_at(25, 4));
  pipe.indication(report_at(50, 4));  // period learned: 25
  EXPECT_FALSE(pipe.xapp->degraded());
  pipe.indication(report_at(125, 4));  // 75-TTI jump vs learned 25
  EXPECT_TRUE(pipe.xapp->degraded());
  pipe.expect_counter("explora.xapp.indications_missed", 2);
}

TEST(ExploraXapp, DegradedModeHoldsLastSafeAction) {
  ExploraXapp::Config config;
  config.expected_report_period = 25;
  config.degraded_hold_last = true;
  Pipeline pipe(config);

  const auto safe = control(36, 3, 11);
  const auto risky = control(6, 9, 35);
  pipe.drl_control(safe, 1);  // enforced while healthy
  pipe.indication(report_at(25, 4));
  pipe.indication(report_at(100, 4));  // gap -> degraded
  ASSERT_TRUE(pipe.xapp->degraded());

  pipe.drl_control(risky, 2);
  ASSERT_EQ(pipe.sink.controls.size(), 2u);
  EXPECT_EQ(pipe.sink.controls[1], safe);  // held, not the proposal
  EXPECT_EQ(pipe.xapp->controls_replaced(), 1u);
  const auto& record = pipe.repo.explanations()[1];
  EXPECT_TRUE(record.replaced);
  EXPECT_NE(record.explanation.find("degraded"), std::string::npos);
}

TEST(ExploraXapp, DegradedModeSkipsSteeringButKeepsShield) {
  ExploraXapp::Config config;
  config.expected_report_period = 25;
  ActionSteering::Config steering;
  steering.strategy = SteeringStrategy::kMaxReward;
  steering.observation_window = 2;
  config.steering = steering;
  netsim::SlicingControl fallback = control(18, 15, 17);
  ActionShield shield(fallback);
  shield.add_rule(ActionShield::min_prbs_rule(netsim::Slice::kUrllc, 10));
  config.shield = std::move(shield);
  Pipeline pipe(config);

  pipe.drl_control(control(18, 15, 17), 1);
  pipe.indication(report_at(25, 4));
  pipe.indication(report_at(100, 4));  // gap -> degraded
  ASSERT_TRUE(pipe.xapp->degraded());

  // Steering is frozen (stale evidence) but the shield still blocks a
  // rule-violating proposal.
  pipe.drl_control(control(42, 3, 5), 2);  // URLLC 5 < 10
  ASSERT_EQ(pipe.sink.controls.size(), 2u);
  EXPECT_EQ(pipe.sink.controls[1], fallback);
  EXPECT_NE(pipe.repo.explanations()[1].explanation.find("degraded"),
            std::string::npos);
}

TEST(ExploraXapp, DuplicateUpstreamControlsForwardedOnce) {
  Pipeline pipe;
  const auto action = control(36, 3, 11);
  pipe.router.send(oran::make_ran_control("drl", action, 1, /*seq=*/4));
  pipe.router.send(oran::make_ran_control("drl", action, 1, /*seq=*/4));
  EXPECT_EQ(pipe.sink.controls.size(), 1u);  // forwarded exactly once
  pipe.expect_counter("explora.xapp.controls_seen", 1);
  pipe.expect_counter("explora.xapp.duplicate_controls", 1);
  EXPECT_EQ(pipe.repo.explanations().size(), 1u);  // archived once
}

TEST(ExploraXapp, ReliableForwardingCarriesOwnSequence) {
  ExploraXapp::Config config;
  config.reliable = oran::ReliableControlSender::Config{};
  Pipeline pipe(config);
  pipe.router.add_route(oran::MessageType::kRanControlAck, "e2term",
                        "explora_xapp");

  pipe.drl_control(control(36, 3, 11), 1);
  const oran::ReliableControlSender* reliable = pipe.xapp->reliable();
  ASSERT_NE(reliable, nullptr);
  pipe.expect_counter("oran.reliable.sent", 1);
  EXPECT_EQ(reliable->in_flight(), 1u);  // sink never ACKs

  // An ACK from the e2term clears the in-flight entry.
  pipe.router.send(oran::make_ran_control_ack("e2term", 1));
  EXPECT_EQ(reliable->in_flight(), 0u);
}

}  // namespace
}  // namespace explora::core
