// Tests for the RMR-style router and RIC endpoints (oran/rmr,
// oran/data_repository, oran/e2_term).
#include "oran/rmr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netsim/scenario.hpp"
#include "oran/data_repository.hpp"
#include "oran/e2_term.hpp"

namespace explora::oran {
namespace {

/// Test endpoint recording everything it receives; can emit a follow-up
/// message on delivery (to exercise queued dispatch).
class RecordingEndpoint final : public RmrEndpoint {
 public:
  RecordingEndpoint(std::string name, RmrRouter* router = nullptr,
                    std::optional<RicMessage> follow_up = {})
      : name_(std::move(name)),
        router_(router),
        follow_up_(std::move(follow_up)) {}

  std::string_view endpoint_name() const noexcept override { return name_; }
  void on_message(const RicMessage& message) override {
    received.push_back(message);
    if (router_ != nullptr && follow_up_.has_value()) {
      router_->send(*follow_up_);
      follow_up_.reset();  // only once
    }
  }

  std::vector<RicMessage> received;

 private:
  std::string name_;
  RmrRouter* router_;
  std::optional<RicMessage> follow_up_;
};

netsim::SlicingControl some_control() {
  netsim::SlicingControl control;
  control.prbs = {36, 3, 11};
  control.scheduling = {netsim::SchedulerPolicy::kProportionalFair,
                        netsim::SchedulerPolicy::kRoundRobin,
                        netsim::SchedulerPolicy::kWaterfilling};
  return control;
}

TEST(RmrRouter, RoutesByTypeAndSender) {
  RmrRouter router;
  RecordingEndpoint a("a");
  RecordingEndpoint b("b");
  router.register_endpoint(a);
  router.register_endpoint(b);
  router.add_route(MessageType::kRanControl, "x", "a");
  router.add_route(MessageType::kRanControl, "y", "b");

  router.send(make_ran_control("x", some_control(), 1));
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 0u);
  router.send(make_ran_control("y", some_control(), 2));
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(RmrRouter, WildcardSenderIsFallback) {
  RmrRouter router;
  RecordingEndpoint specific("specific");
  RecordingEndpoint fallback("fallback");
  router.register_endpoint(specific);
  router.register_endpoint(fallback);
  router.add_route(MessageType::kRanControl, "x", "specific");
  router.add_route(MessageType::kRanControl, "*", "fallback");

  router.send(make_ran_control("x", some_control(), 1));
  router.send(make_ran_control("anyone", some_control(), 2));
  EXPECT_EQ(specific.received.size(), 1u);   // exact match wins
  EXPECT_EQ(fallback.received.size(), 1u);   // wildcard catches the rest
}

TEST(RmrRouter, MulticastToMultipleTargets) {
  RmrRouter router;
  RecordingEndpoint a("a");
  RecordingEndpoint b("b");
  router.register_endpoint(a);
  router.register_endpoint(b);
  router.add_route(MessageType::kKpmIndication, "e2term", "a");
  router.add_route(MessageType::kKpmIndication, "e2term", "b");

  router.send(make_kpm_indication("e2term", netsim::KpiReport{}));
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(router.delivered_to("a"), 1u);
  EXPECT_EQ(router.delivered_to("b"), 1u);
}

TEST(RmrRouter, UnroutedMessagesAreDropped) {
  RmrRouter router;
  router.send(make_kpm_indication("nobody", netsim::KpiReport{}));
  EXPECT_EQ(router.dropped(), 1u);
}

TEST(RmrRouter, UnknownTargetCountsAsDrop) {
  RmrRouter router;
  router.add_route(MessageType::kRanControl, "*", "ghost");
  router.send(make_ran_control("x", some_control(), 1));
  EXPECT_EQ(router.dropped(), 1u);
}

TEST(RmrRouter, DropCountersAreKeyedByMessageType) {
  RmrRouter router;
  router.send(make_ran_control("nobody", some_control(), 1));
  router.send(make_ran_control("nobody", some_control(), 2));
  router.send(make_kpm_indication("nobody", netsim::KpiReport{}));
  EXPECT_EQ(router.dropped(), 3u);
  EXPECT_EQ(router.dropped_by_type(MessageType::kRanControl), 2u);
  EXPECT_EQ(router.dropped_by_type(MessageType::kKpmIndication), 1u);
  EXPECT_EQ(router.dropped_by_type(MessageType::kRanControlAck), 0u);
}

TEST(RmrRouter, RemoveRouteRewiresPath) {
  RmrRouter router;
  RecordingEndpoint direct("direct");
  RecordingEndpoint interposer("interposer");
  router.register_endpoint(direct);
  router.register_endpoint(interposer);

  router.add_route(MessageType::kRanControl, "drl", "direct");
  router.send(make_ran_control("drl", some_control(), 1));
  EXPECT_EQ(direct.received.size(), 1u);

  // Interpose (the paper's EXPLORA deployment move).
  router.remove_route(MessageType::kRanControl, "drl");
  router.add_route(MessageType::kRanControl, "drl", "interposer");
  router.send(make_ran_control("drl", some_control(), 2));
  EXPECT_EQ(direct.received.size(), 1u);
  EXPECT_EQ(interposer.received.size(), 1u);
}

TEST(RmrRouter, FollowUpMessagesAreQueuedNotRecursive) {
  RmrRouter router;
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  // "hop" forwards a follow-up to sink when it receives its first message.
  RecordingEndpoint hop("hop", &router,
                        make_ran_control("hop", some_control(), 9));
  router.register_endpoint(hop);
  router.add_route(MessageType::kRanControl, "origin", "hop");
  router.add_route(MessageType::kRanControl, "hop", "sink");

  router.send(make_ran_control("origin", some_control(), 1));
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].ran_control().decision_id, 9u);
}

TEST(RmrRouter, DuplicateEndpointNameIsRejected) {
  RmrRouter router;
  RecordingEndpoint a("dup");
  RecordingEndpoint b("dup");
  router.register_endpoint(a);
  EXPECT_DEATH(router.register_endpoint(b), "unique");
}

TEST(DataRepository, StoresIndicationsOnly) {
  DataRepository repo(16);
  repo.on_message(make_kpm_indication("e2term", netsim::KpiReport{}));
  repo.on_message(make_ran_control("drl", some_control(), 1));
  EXPECT_EQ(repo.report_count(), 1u);
}

TEST(DataRepository, RingBufferEvictsOldest) {
  DataRepository repo(3);
  for (int i = 0; i < 5; ++i) {
    netsim::KpiReport report;
    report.window_end = i;
    repo.on_message(make_kpm_indication("e2term", report));
  }
  EXPECT_EQ(repo.report_count(), 3u);
  EXPECT_EQ(repo.all_reports().front().window_end, 2);
}

// Far past capacity the history keeps the newest reports in arrival order,
// across the moves that bring the live reports back to the front.
TEST(DataRepository, HistoryKeepsTheNewestPastCapacity) {
  DataRepository repo(3);
  for (int i = 0; i < 20; ++i) {
    netsim::KpiReport report;
    report.window_end = i;
    repo.on_message(make_kpm_indication("e2term", report));
    const auto history = repo.all_reports();
    ASSERT_EQ(history.size(), std::min(i + 1, 3)) << i;
    for (std::size_t k = 0; k < history.size(); ++k) {
      EXPECT_EQ(history[k].window_end,
                i + 1 - static_cast<int>(history.size() - k))
          << i;
    }
  }
  const auto latest = repo.latest_reports(2);
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0].window_end, 18);
  EXPECT_EQ(latest[1].window_end, 19);
}

TEST(DataRepository, LatestReportsOldestFirst) {
  DataRepository repo(16);
  for (int i = 0; i < 6; ++i) {
    netsim::KpiReport report;
    report.window_end = i;
    repo.on_message(make_kpm_indication("e2term", report));
  }
  const auto latest = repo.latest_reports(3);
  ASSERT_EQ(latest.size(), 3u);
  EXPECT_EQ(latest[0].window_end, 3);
  EXPECT_EQ(latest[2].window_end, 5);
}

TEST(DataRepository, LatestMoreThanAvailable) {
  DataRepository repo(16);
  repo.on_message(make_kpm_indication("e2term", netsim::KpiReport{}));
  EXPECT_EQ(repo.latest_reports(10).size(), 1u);
}

TEST(DataRepository, ExplanationArchive) {
  DataRepository repo;
  repo.store_explanation(ExplanationRecord{.decision_id = 1,
                                           .proposed = some_control(),
                                           .enforced = some_control(),
                                           .replaced = false,
                                           .explanation = "fine"});
  ASSERT_EQ(repo.explanations().size(), 1u);
  EXPECT_EQ(repo.explanations()[0].explanation, "fine");
}

TEST(E2Termination, AppliesControlToGnb) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  netsim::Gnb& gnb_ref = *gnb;
  RmrRouter router;
  E2Termination e2term(gnb_ref, router);
  router.register_endpoint(e2term);

  e2term.on_message(make_ran_control("drl", some_control(), 1));
  EXPECT_EQ(gnb_ref.control(), some_control());
  EXPECT_EQ(e2term.controls_applied(), 1u);
}

TEST(E2Termination, RejectsMalformedControlWithoutApplyOrAck) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 1, 1};
  auto gnb = netsim::make_gnb(scenario);
  RmrRouter router;
  E2Termination e2term(*gnb, router);
  router.register_endpoint(e2term);
  RecordingEndpoint drl("drl");
  router.register_endpoint(drl);
  router.add_route(MessageType::kRanControlAck, "e2term", "drl");
  const netsim::SlicingControl before = gnb->control();

  netsim::SlicingControl malformed;
  malformed.prbs = {0, 0, 0};  // empty PRB mask
  malformed.scheduling = {netsim::SchedulerPolicy::kRoundRobin,
                          netsim::SchedulerPolicy::kRoundRobin,
                          netsim::SchedulerPolicy::kRoundRobin};
  e2term.on_message(make_ran_control("drl", malformed, 1, /*seq=*/3));

  EXPECT_EQ(e2term.controls_rejected(), 1u);
  EXPECT_EQ(e2term.controls_applied(), 0u);
  EXPECT_EQ(gnb->control(), before);   // gNB state untouched
  EXPECT_TRUE(drl.received.empty());   // no ACK: it was not delivered

  netsim::SlicingControl bad_policy = some_control();
  bad_policy.scheduling[1] = static_cast<netsim::SchedulerPolicy>(99);
  e2term.on_message(make_ran_control("drl", bad_policy, 2, /*seq=*/4));
  EXPECT_EQ(e2term.controls_rejected(), 2u);
  EXPECT_EQ(e2term.controls_applied(), 0u);
}

TEST(E2Termination, PublishesIndications) {
  netsim::ScenarioConfig scenario;
  scenario.users_per_slice = {1, 0, 0};
  auto gnb = netsim::make_gnb(scenario);
  RmrRouter router;
  E2Termination e2term(*gnb, router);
  router.register_endpoint(e2term);
  RecordingEndpoint sink("sink");
  router.register_endpoint(sink);
  router.add_route(MessageType::kKpmIndication, "e2term", "sink");

  e2term.collect_and_publish();
  e2term.collect_and_publish();
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(e2term.indications_sent(), 2u);
  EXPECT_EQ(sink.received[1].kpm().report.window_end, 50);  // 2 x 25 TTIs
}

}  // namespace
}  // namespace explora::oran
