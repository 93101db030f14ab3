// Unit tests for the gNB MAC model and scenario builder (netsim/gnb,
// netsim/scenario, netsim/types).
#include "netsim/gnb.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "netsim/scenario.hpp"

namespace explora::netsim {
namespace {

[[noreturn]] void throwing_handler(const contracts::ContractViolation& v) {
  throw std::runtime_error(std::string(v.expr) + " " + v.message);
}

ScenarioConfig small_scenario() {
  ScenarioConfig config;
  config.users_per_slice = {1, 1, 1};
  config.seed = 7;
  return config;
}

TEST(PrbCatalog, EntriesSumToCarrier) {
  for (const auto& entry : prb_catalog()) {
    EXPECT_EQ(std::accumulate(entry.begin(), entry.end(), 0u), kTotalPrbs);
  }
}

TEST(PrbCatalog, IndexRoundTrip) {
  const auto& catalog = prb_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(prb_catalog_index(catalog[i]), i);
  }
}

TEST(PrbCatalog, UnknownSplitThrows) {
  EXPECT_THROW((void)prb_catalog_index({49, 0, 1}), std::out_of_range);
}

TEST(SlicingControl, ToStringMatchesPaperNotation) {
  SlicingControl control;
  control.prbs = {36, 3, 11};
  control.scheduling = {SchedulerPolicy::kProportionalFair,
                        SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kWaterfilling};
  EXPECT_EQ(control.to_string(), "([36, 3, 11], [2, 0, 1])");
}

TEST(SlicingControl, EqualityAndOrdering) {
  SlicingControl a;
  a.prbs = {10, 20, 20};
  SlicingControl b = a;
  EXPECT_EQ(a, b);
  b.scheduling[2] = SchedulerPolicy::kProportionalFair;
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_FALSE(a < a);
}

TEST(SlicingControl, HashDistinguishesActions) {
  SlicingControlHash hash;
  SlicingControl a;
  a.prbs = {10, 20, 20};
  SlicingControl b = a;
  b.prbs = {20, 10, 20};
  EXPECT_NE(hash(a), hash(b));
  EXPECT_EQ(hash(a), hash(a));
}

TEST(UsersForCount, PaperAssignments) {
  EXPECT_EQ(users_for_count(6), (PerSlice<std::uint32_t>{2, 2, 2}));
  EXPECT_EQ(users_for_count(5), (PerSlice<std::uint32_t>{2, 1, 2}));
  EXPECT_EQ(users_for_count(4), (PerSlice<std::uint32_t>{1, 1, 2}));
  EXPECT_EQ(users_for_count(3), (PerSlice<std::uint32_t>{1, 1, 1}));
  EXPECT_EQ(users_for_count(2), (PerSlice<std::uint32_t>{1, 0, 1}));
  EXPECT_EQ(users_for_count(1, Slice::kMmtc),
            (PerSlice<std::uint32_t>{0, 1, 0}));
}

TEST(Scenario, BuildsRequestedUserCounts) {
  auto gnb = make_gnb(small_scenario());
  EXPECT_EQ(gnb->num_ues(), 3u);
  EXPECT_EQ(gnb->slice_ues(Slice::kEmbb).size(), 1u);
  EXPECT_EQ(gnb->slice_ues(Slice::kMmtc).size(), 1u);
  EXPECT_EQ(gnb->slice_ues(Slice::kUrllc).size(), 1u);
}

TEST(Scenario, NameEncodesConfig) {
  ScenarioConfig config = small_scenario();
  config.profile = TrafficProfile::kTrf2;
  EXPECT_EQ(config.name(), "TRF2-3u(e1/m1/u1)-seed7");
}

TEST(Gnb, AppliesControl) {
  auto gnb = make_gnb(small_scenario());
  SlicingControl control;
  control.prbs = {36, 3, 11};
  control.scheduling = {SchedulerPolicy::kWaterfilling,
                        SchedulerPolicy::kProportionalFair,
                        SchedulerPolicy::kRoundRobin};
  gnb->apply_control(control);
  EXPECT_EQ(gnb->control(), control);
}

TEST(Gnb, ReportWindowAdvancesTime) {
  auto gnb = make_gnb(small_scenario());
  const Tick before = gnb->now();
  const KpiReport report = gnb->run_report_window();
  EXPECT_EQ(gnb->now(), before + 25);
  EXPECT_EQ(report.window_end, gnb->now());
}

TEST(Gnb, ReportHasPerUeEntries) {
  ScenarioConfig config = small_scenario();
  config.users_per_slice = {2, 1, 2};
  auto gnb = make_gnb(config);
  const KpiReport report = gnb->run_report_window();
  EXPECT_EQ(report.slices[0].tx_bitrate_mbps.size(), 2u);
  EXPECT_EQ(report.slices[1].tx_bitrate_mbps.size(), 1u);
  EXPECT_EQ(report.slices[2].buffer_bytes.size(), 2u);
}

TEST(Gnb, EmbbTrafficIsServedUnderGenerousAllocation) {
  ScenarioConfig config = small_scenario();
  config.min_distance_m = 300.0;
  config.max_distance_m = 500.0;  // strong channel
  auto gnb = make_gnb(config);
  SlicingControl control;
  control.prbs = {42, 3, 5};
  control.scheduling = {SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin};
  gnb->apply_control(control);
  double bitrate = 0.0;
  for (int i = 0; i < 40; ++i) {  // 1 s
    bitrate = gnb->run_report_window().value(Kpi::kTxBitrate, Slice::kEmbb);
  }
  // One eMBB UE offered 4 Mbit/s; with 42 PRBs and a good channel the
  // served rate should track the offered rate.
  EXPECT_NEAR(bitrate, 4.0, 1.0);
}

TEST(Gnb, StarvedSliceBuildsBuffer) {
  auto gnb = make_gnb(small_scenario());
  SlicingControl control;
  control.prbs = {48, 1, 1};  // nearly nothing for URLLC
  control.scheduling = {SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin,
                        SchedulerPolicy::kRoundRobin};
  // Not in the catalogue, but apply_control only validates the sum.
  gnb->apply_control(control);
  SlicingControl generous = control;
  generous.prbs = {10, 10, 30};

  double starved_buffer = 0.0;
  for (int i = 0; i < 200; ++i) {
    starved_buffer =
        gnb->run_report_window().value(Kpi::kBufferSize, Slice::kUrllc);
  }
  auto gnb2 = make_gnb(small_scenario());
  gnb2->apply_control(generous);
  double fed_buffer = 0.0;
  for (int i = 0; i < 200; ++i) {
    fed_buffer =
        gnb2->run_report_window().value(Kpi::kBufferSize, Slice::kUrllc);
  }
  EXPECT_GE(starved_buffer, fed_buffer);
}

TEST(Gnb, DetachUeReducesCount) {
  ScenarioConfig config = small_scenario();
  config.users_per_slice = {2, 2, 2};
  auto gnb = make_gnb(config);
  EXPECT_TRUE(gnb->detach_one_ue(Slice::kMmtc));
  EXPECT_EQ(gnb->num_ues(), 5u);
  EXPECT_EQ(gnb->slice_ues(Slice::kMmtc).size(), 1u);
  EXPECT_TRUE(gnb->detach_one_ue(Slice::kMmtc));
  EXPECT_FALSE(gnb->detach_one_ue(Slice::kMmtc));  // none left
}

TEST(Gnb, DeterministicAcrossRuns) {
  auto a = make_gnb(small_scenario());
  auto b = make_gnb(small_scenario());
  for (int i = 0; i < 20; ++i) {
    const KpiReport ra = a->run_report_window();
    const KpiReport rb = b->run_report_window();
    for (std::size_t s = 0; s < kNumSlices; ++s) {
      EXPECT_EQ(ra.slices[s].tx_bitrate_mbps, rb.slices[s].tx_bitrate_mbps);
      EXPECT_EQ(ra.slices[s].buffer_bytes, rb.slices[s].buffer_bytes);
    }
  }
}

TEST(KpiReport, AggregateSumsUes) {
  SliceKpiReport slice;
  slice.tx_bitrate_mbps = {1.5, 2.5};
  slice.tx_packets = {10.0, 20.0};
  slice.buffer_bytes = {100.0, 200.0};
  EXPECT_DOUBLE_EQ(slice.aggregate(Kpi::kTxBitrate), 4.0);
  EXPECT_DOUBLE_EQ(slice.aggregate(Kpi::kTxPackets), 30.0);
  EXPECT_DOUBLE_EQ(slice.aggregate(Kpi::kBufferSize), 300.0);
}

TEST(KpiReport, EqualityComparesLiveUesOnly) {
  PerUeValues a = {1.0, 2.0, 3.0};
  const PerUeValues b = {1.0, 2.0};
  EXPECT_NE(a, b);
  a.resize(2);  // the third slot still holds 3.0, but no longer counts
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(KpiReport, PerUeListsHoldAtMostTheSliceCapacity) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  PerUeValues full;
  for (std::size_t u = 0; u < kMaxUesPerSlice; ++u) full.push_back(1.0);
  EXPECT_THROW(full.push_back(1.0), std::runtime_error);
  EXPECT_EQ(full.size(), kMaxUesPerSlice);
}

TEST(GnbContract, RejectsASliceWithMoreUesThanAReportHolds) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  ScenarioConfig config = small_scenario();
  config.users_per_slice[1] = kMaxUesPerSlice + 1;
  EXPECT_THROW((void)make_gnb(config), std::runtime_error);

  config.users_per_slice[1] = kMaxUesPerSlice;
  const auto gnb = make_gnb(config);
  const KpiReport report = gnb->run_report_window();
  EXPECT_EQ(report.slices[1].tx_packets.size(), kMaxUesPerSlice);
}

TEST(EnumNames, AllStable) {
  EXPECT_EQ(to_string(Slice::kEmbb), "eMBB");
  EXPECT_EQ(to_string(Slice::kMmtc), "mMTC");
  EXPECT_EQ(to_string(Slice::kUrllc), "URLLC");
  EXPECT_EQ(to_string(SchedulerPolicy::kRoundRobin), "RR");
  EXPECT_EQ(to_string(SchedulerPolicy::kWaterfilling), "WF");
  EXPECT_EQ(to_string(SchedulerPolicy::kProportionalFair), "PF");
  EXPECT_EQ(to_string(Kpi::kTxBitrate), "tx_bitrate");
  EXPECT_EQ(to_string(Kpi::kTxPackets), "tx_packets");
  EXPECT_EQ(to_string(Kpi::kBufferSize), "DWL_buffer_size");
}

}  // namespace
}  // namespace explora::netsim
