// Tests for the transition taxonomy and tracker (explora/transitions) and
// the reward model (explora/reward).
#include "explora/transitions.hpp"

#include <gtest/gtest.h>

#include "explora/graph.hpp"
#include "explora/reward.hpp"

namespace explora::core {
namespace {

netsim::SlicingControl control(std::uint32_t embb, std::uint32_t mmtc,
                               std::uint32_t urllc, int s0 = 0, int s1 = 0,
                               int s2 = 0) {
  netsim::SlicingControl out;
  out.prbs = {embb, mmtc, urllc};
  out.scheduling = {static_cast<netsim::SchedulerPolicy>(s0),
                    static_cast<netsim::SchedulerPolicy>(s1),
                    static_cast<netsim::SchedulerPolicy>(s2)};
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

/// One decision window; record_step takes a span, which a braced list of
/// reports cannot initialise.
using Window = std::vector<netsim::KpiReport>;

TEST(TransitionClassify, AllFourClasses) {
  const auto base = control(36, 3, 11, 0, 1, 2);
  EXPECT_EQ(classify_transition(base, base), TransitionClass::kSelf);
  EXPECT_EQ(classify_transition(base, control(36, 3, 11, 2, 1, 0)),
            TransitionClass::kSamePrb);
  EXPECT_EQ(classify_transition(base, control(12, 3, 35, 0, 1, 2)),
            TransitionClass::kSameSched);
  EXPECT_EQ(classify_transition(base, control(12, 3, 35, 2, 1, 0)),
            TransitionClass::kDistinct);
}

TEST(TransitionClassify, SingleSchedulerChangeIsSamePrb) {
  const auto base = control(36, 3, 11, 0, 0, 0);
  EXPECT_EQ(classify_transition(base, control(36, 3, 11, 0, 0, 1)),
            TransitionClass::kSamePrb);
}

TEST(TransitionNames, Stable) {
  EXPECT_EQ(to_string(TransitionClass::kSelf), "Self");
  EXPECT_EQ(to_string(TransitionClass::kSamePrb), "Same-PRB");
  EXPECT_EQ(to_string(TransitionClass::kSameSched), "Same-Sched");
  EXPECT_EQ(to_string(TransitionClass::kDistinct), "Distinct");
  EXPECT_EQ(transition_class_names().size(), kNumTransitionClasses);
}

TEST(TransitionTracker, FirstStepProducesNoEvent) {
  TransitionTracker tracker;
  tracker.record_step(control(36, 3, 11), Window{report(1, 1, 1)});
  EXPECT_TRUE(tracker.events().empty());
}

TEST(TransitionTracker, DeltaIsHandComputable) {
  TransitionTracker tracker;
  // Step 1 under action a: bitrate mean = (4 + 6) / 2 = 5 per slice.
  tracker.record_step(control(36, 3, 11),
                      Window{report(4, 10, 100), report(6, 20, 300)});
  // Step 2 under action b: bitrate mean = 8 per slice.
  tracker.record_step(control(12, 3, 35),
                      Window{report(8, 40, 500)});
  ASSERT_EQ(tracker.events().size(), 1u);
  const TransitionEvent& event = tracker.events()[0];
  EXPECT_EQ(event.cls, TransitionClass::kSameSched);
  // Per-slice delta: 8 - 5 = 3; kpi_delta sums the three slices.
  EXPECT_DOUBLE_EQ(event.kpi_delta(netsim::Kpi::kTxBitrate), 9.0);
  EXPECT_DOUBLE_EQ(event.kpi_delta(netsim::Kpi::kTxPackets),
                   (40.0 - 15.0) * 3);
  EXPECT_DOUBLE_EQ(event.kpi_delta(netsim::Kpi::kBufferSize),
                   (500.0 - 200.0) * 3);
  EXPECT_EQ(event.delta.size(), kNumAttributes);
  EXPECT_EQ(event.js_divergence.size(), kNumAttributes);
}

TEST(TransitionTracker, JsDivergenceIsBounded) {
  TransitionTracker tracker;
  tracker.record_step(control(36, 3, 11),
                      Window{report(1, 1, 1), report(2, 2, 2)});
  tracker.record_step(
      control(36, 3, 11),
      Window{report(100, 100, 100), report(101, 101, 101)});
  const auto& event = tracker.events()[0];
  for (double js : event.js_divergence) {
    EXPECT_GE(js, 0.0);
    EXPECT_LE(js, 1.0);
  }
}

TEST(TransitionTracker, ResetLinkSuppressesEvent) {
  TransitionTracker tracker;
  tracker.record_step(control(36, 3, 11), Window{report(1, 1, 1)});
  tracker.reset_link();
  tracker.record_step(control(12, 3, 35), Window{report(2, 2, 2)});
  EXPECT_TRUE(tracker.events().empty());
}

TEST(TransitionTracker, ClassSharesSumToOne) {
  TransitionTracker tracker;
  const auto a = control(36, 3, 11, 0, 0, 0);
  const Window window{report(1, 1, 1)};
  tracker.record_step(a, window);
  tracker.record_step(a, window);                               // Self
  tracker.record_step(control(36, 3, 11, 1, 0, 0), window);  // Same-PRB
  tracker.record_step(control(12, 3, 35, 1, 0, 0), window);  // Same-Sched
  tracker.record_step(control(36, 3, 11, 2, 2, 2), window);  // Distinct
  const auto shares = tracker.class_shares();
  double total = 0.0;
  for (double s : shares) total += s;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(shares[static_cast<std::size_t>(TransitionClass::kSelf)],
                   0.25);
}

TEST(TransitionFeatureNames, MatchDimensions) {
  EXPECT_EQ(transition_feature_names(false).size(), kNumAttributes);
  EXPECT_EQ(transition_feature_names(true).size(), 2 * kNumAttributes);
  EXPECT_EQ(transition_feature_names(false)[0], "d_tx_bitrate[eMBB]");
}

// ---- reward model ----

TEST(RewardModel, TargetKpiPerSliceMatchesPaper) {
  EXPECT_EQ(target_kpi(netsim::Slice::kEmbb), netsim::Kpi::kTxBitrate);
  EXPECT_EQ(target_kpi(netsim::Slice::kMmtc), netsim::Kpi::kTxPackets);
  EXPECT_EQ(target_kpi(netsim::Slice::kUrllc), netsim::Kpi::kBufferSize);
}

TEST(RewardModel, UrllcWeightIsNegative) {
  EXPECT_LT(RewardWeights::high_throughput().w[2], 0.0);
  EXPECT_LT(RewardWeights::low_latency().w[2], 0.0);
  EXPECT_GT(RewardWeights::high_throughput().w[0], 0.0);
}

TEST(RewardModel, HtPrioritizesEmbbOverLl) {
  // A bitrate increase must move the HT reward more than the LL reward.
  const RewardModel ht(RewardWeights::high_throughput());
  const RewardModel ll(RewardWeights::low_latency());
  const auto low = report(1.0, 0.0, 0.0);
  const auto high = report(5.0, 0.0, 0.0);
  const double ht_gain = ht.from_report(high) - ht.from_report(low);
  const double ll_gain = ll.from_report(high) - ll.from_report(low);
  EXPECT_GT(ht_gain, ll_gain);
}

TEST(RewardModel, LlPenalizesBufferMore) {
  const RewardModel ht(RewardWeights::high_throughput());
  const RewardModel ll(RewardWeights::low_latency());
  const auto empty = report(0.0, 0.0, 0.0);
  const auto full = report(0.0, 0.0, 1e5);
  EXPECT_LT(ll.from_report(full) - ll.from_report(empty),
            ht.from_report(full) - ht.from_report(empty));
}

TEST(RewardModel, FromWindowIsMeanOfReports) {
  const RewardModel model(RewardWeights::high_throughput());
  const std::vector<netsim::KpiReport> window{report(2, 0, 0),
                                              report(4, 0, 0)};
  EXPECT_DOUBLE_EQ(model.from_window(window),
                   (model.from_report(window[0]) +
                    model.from_report(window[1])) / 2.0);
}

TEST(RewardModel, FromNodeUsesAttributeMeans) {
  const RewardModel model(RewardWeights::high_throughput());
  AttributedGraph graph;
  graph.begin_action(control(36, 3, 11));
  graph.record_consequence(report(2, 0, 0));
  graph.record_consequence(report(4, 0, 0));
  const ActionNode* node = graph.find(control(36, 3, 11));
  ASSERT_NE(node, nullptr);
  EXPECT_DOUBLE_EQ(model.from_node(*node), model.from_report(report(3, 0, 0)));
}

TEST(RewardModel, ProfileNamesAndLookup) {
  EXPECT_EQ(to_string(AgentProfile::kHighThroughput), "HT");
  EXPECT_EQ(to_string(AgentProfile::kLowLatency), "LL");
  EXPECT_EQ(weights_for(AgentProfile::kHighThroughput).w,
            RewardWeights::high_throughput().w);
  EXPECT_EQ(weights_for(AgentProfile::kLowLatency).w,
            RewardWeights::low_latency().w);
}

}  // namespace
}  // namespace explora::core
