// Tests for the feature pipeline (ml/features): normalizer, input window
// and action <-> control mapping.
#include "ml/features.hpp"

#include <gtest/gtest.h>

#include "common/serialize.hpp"

namespace explora::ml {
namespace {

netsim::KpiReport make_report(double bitrate, double packets, double buffer) {
  netsim::KpiReport report;
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    report.slices[s].tx_bitrate_mbps = {bitrate};
    report.slices[s].tx_packets = {packets};
    report.slices[s].buffer_bytes = {buffer};
  }
  return report;
}

TEST(KpiNormalizer, MapsFittedRangeToUnitInterval) {
  KpiNormalizer normalizer;
  normalizer.observe(make_report(0.0, 0.0, 0.0));
  normalizer.observe(make_report(10.0, 100.0, 1000.0));
  EXPECT_DOUBLE_EQ(normalizer.normalize(netsim::Kpi::kTxBitrate,
                                        netsim::Slice::kEmbb, 0.0),
                   -1.0);
  EXPECT_DOUBLE_EQ(normalizer.normalize(netsim::Kpi::kTxBitrate,
                                        netsim::Slice::kEmbb, 10.0),
                   1.0);
  EXPECT_DOUBLE_EQ(normalizer.normalize(netsim::Kpi::kTxBitrate,
                                        netsim::Slice::kEmbb, 5.0),
                   0.0);
}

TEST(KpiNormalizer, ClampsOutOfRange) {
  KpiNormalizer normalizer;
  normalizer.observe(make_report(0.0, 0.0, 0.0));
  normalizer.observe(make_report(10.0, 10.0, 10.0));
  EXPECT_DOUBLE_EQ(normalizer.normalize(netsim::Kpi::kTxBitrate,
                                        netsim::Slice::kEmbb, 50.0),
                   1.0);
  EXPECT_DOUBLE_EQ(normalizer.normalize(netsim::Kpi::kTxBitrate,
                                        netsim::Slice::kEmbb, -50.0),
                   -1.0);
}

TEST(KpiNormalizer, DenormalizeInverts) {
  KpiNormalizer normalizer;
  normalizer.observe(make_report(0.0, 0.0, 0.0));
  normalizer.observe(make_report(8.0, 200.0, 1e6));
  for (double value : {0.0, 2.0, 4.0, 8.0}) {
    const double normalized = normalizer.normalize(
        netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb, value);
    EXPECT_NEAR(normalizer.denormalize(netsim::Kpi::kTxBitrate,
                                       netsim::Slice::kEmbb, normalized),
                value, 1e-9);
  }
}

TEST(KpiNormalizer, SerializeRoundTrip) {
  KpiNormalizer normalizer;
  normalizer.observe(make_report(1.0, 2.0, 3.0));
  normalizer.observe(make_report(4.0, 5.0, 6.0));
  common::Writer writer;
  normalizer.serialize(writer);

  KpiNormalizer loaded;
  common::Reader reader(writer.buffer());
  loaded.deserialize(reader);
  EXPECT_DOUBLE_EQ(
      loaded.normalize(netsim::Kpi::kTxPackets, netsim::Slice::kMmtc, 3.5),
      normalizer.normalize(netsim::Kpi::kTxPackets, netsim::Slice::kMmtc,
                           3.5));
}

TEST(InputWindow, ReadyAfterMReports) {
  InputWindow window;
  for (std::size_t i = 0; i < kHistory - 1; ++i) {
    window.push(make_report(1.0, 1.0, 1.0));
    EXPECT_FALSE(window.ready());
  }
  window.push(make_report(1.0, 1.0, 1.0));
  EXPECT_TRUE(window.ready());
}

TEST(InputWindow, EvictsOldest) {
  InputWindow window;
  for (std::size_t i = 0; i < kHistory + 5; ++i) {
    window.push(make_report(static_cast<double>(i), 0.0, 0.0));
  }
  EXPECT_EQ(window.size(), kHistory);
  EXPECT_DOUBLE_EQ(window.latest().value(netsim::Kpi::kTxBitrate,
                                         netsim::Slice::kEmbb),
                   static_cast<double>(kHistory + 4));
}

TEST(InputWindow, FlattenLayoutIsMThenKpiThenSlice) {
  KpiNormalizer normalizer;
  normalizer.observe(make_report(0.0, 0.0, 0.0));
  normalizer.observe(make_report(10.0, 10.0, 10.0));

  InputWindow window;
  for (std::size_t i = 0; i < kHistory; ++i) {
    // Report m = i has bitrate i (so we can find it in the layout).
    window.push(make_report(static_cast<double>(i), 0.0, 0.0));
  }
  const Vector flat = window.flatten(normalizer);
  ASSERT_EQ(flat.size(), kInputDim);
  // Element [m][k=0 (bitrate)][l=0 (eMBB)] sits at m * K * L.
  for (std::size_t m = 0; m < kHistory; ++m) {
    const double expected = normalizer.normalize(
        netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb,
        static_cast<double>(m));
    EXPECT_DOUBLE_EQ(flat[m * netsim::kNumKpis * netsim::kNumSlices],
                     expected);
  }
}

TEST(InputWindow, WindowMeanAveragesReports) {
  InputWindow window;
  window.push(make_report(2.0, 0.0, 0.0));
  window.push(make_report(4.0, 0.0, 0.0));
  EXPECT_DOUBLE_EQ(
      window.window_mean(netsim::Kpi::kTxBitrate, netsim::Slice::kEmbb),
      3.0);
}

TEST(AgentAction, ControlRoundTrip) {
  AgentAction action;
  action.prb_choice = 3;
  action.sched_choice = {0, 1, 2};
  const netsim::SlicingControl control = to_control(action);
  EXPECT_EQ(control.prbs, netsim::prb_catalog()[3]);
  EXPECT_EQ(control.scheduling[1], netsim::SchedulerPolicy::kWaterfilling);
  EXPECT_EQ(from_control(control), action);
}

TEST(AgentAction, FromUnknownControlThrows) {
  netsim::SlicingControl control;
  control.prbs = {49, 0, 1};  // not in the catalogue
  EXPECT_THROW((void)from_control(control), std::out_of_range);
}

TEST(Constants, DimensionsMatchPaper) {
  EXPECT_EQ(kHistory, 10u);     // M
  EXPECT_EQ(kInputDim, 90u);    // M x K x L
  EXPECT_EQ(kLatentDim, 9u);    // K x L
}

}  // namespace
}  // namespace explora::ml
