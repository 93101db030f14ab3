// Tests for knowledge distillation (explora/distill).
#include "explora/distill.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace explora::core {
namespace {

/// Synthesizes transition events where each class has a distinct KPI
/// signature, so the DT and the wording have real structure to find:
///   Self        -> no change anywhere,
///   Same-PRB    -> bitrate up,
///   Same-Sched  -> buffer down,
///   Distinct    -> packets up and buffer up.
std::vector<TransitionEvent> structured_events(std::size_t per_class,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<TransitionEvent> events;
  auto make = [&](TransitionClass cls, double d_bitrate, double d_packets,
                  double d_buffer) {
    TransitionEvent event;
    event.cls = cls;
    for (std::size_t l = 0; l < netsim::kNumSlices; ++l) {
      const auto slice = static_cast<netsim::Slice>(l);
      event.delta[attribute_index(netsim::Kpi::kTxBitrate, slice)] =
          d_bitrate / 3.0 + rng.normal(0.0, 0.02);
      event.delta[attribute_index(netsim::Kpi::kTxPackets, slice)] =
          d_packets / 3.0 + rng.normal(0.0, 0.5);
      event.delta[attribute_index(netsim::Kpi::kBufferSize, slice)] =
          d_buffer / 3.0 + rng.normal(0.0, 10.0);
    }
    events.push_back(std::move(event));
  };
  for (std::size_t i = 0; i < per_class; ++i) {
    make(TransitionClass::kSelf, 0.0, 0.0, 0.0);
    make(TransitionClass::kSamePrb, 2.0, 0.0, 0.0);
    make(TransitionClass::kSameSched, 0.0, 0.0, -500.0);
    make(TransitionClass::kDistinct, 0.0, 30.0, 500.0);
  }
  return events;
}

TEST(Distill, TreeDiscriminatesStructuredClasses) {
  const auto events = structured_events(40, 1);
  KnowledgeDistiller distiller;
  const DistilledKnowledge knowledge = distiller.distill(events);
  EXPECT_GT(knowledge.tree_accuracy, 0.9);
  EXPECT_FALSE(knowledge.rules.empty());
  EXPECT_FALSE(knowledge.decision_paths.empty());
}

TEST(Distill, SummariesReportCountsAndShares) {
  const auto events = structured_events(10, 3);
  KnowledgeDistiller distiller;
  const DistilledKnowledge knowledge = distiller.distill(events);
  for (const auto& summary : knowledge.summaries) {
    EXPECT_EQ(summary.count, 10u);
    EXPECT_NEAR(summary.share, 0.25, 1e-12);
  }
}

TEST(Distill, WordingMatchesSignatures) {
  const auto events = structured_events(50, 5);
  KnowledgeDistiller distiller;
  const DistilledKnowledge knowledge = distiller.distill(events);

  const auto& same_prb =
      knowledge.summaries[static_cast<std::size_t>(TransitionClass::kSamePrb)];
  EXPECT_TRUE(same_prb.effect[0] == EffectMagnitude::kAugments ||
              same_prb.effect[0] == EffectMagnitude::kAugmentsLightly)
      << same_prb.interpretation;

  const auto& same_sched = knowledge.summaries[static_cast<std::size_t>(
      TransitionClass::kSameSched)];
  EXPECT_TRUE(same_sched.effect[2] == EffectMagnitude::kDiminishes ||
              same_sched.effect[2] == EffectMagnitude::kDiminishesLightly)
      << same_sched.interpretation;

  const auto& distinct = knowledge.summaries[static_cast<std::size_t>(
      TransitionClass::kDistinct)];
  EXPECT_TRUE(distinct.effect[1] == EffectMagnitude::kAugments ||
              distinct.effect[1] == EffectMagnitude::kAugmentsLightly);
}

TEST(Distill, SelfClassReadsAsNoChange) {
  const auto events = structured_events(50, 7);
  KnowledgeDistiller distiller;
  const DistilledKnowledge knowledge = distiller.distill(events);
  const auto& self =
      knowledge.summaries[static_cast<std::size_t>(TransitionClass::kSelf)];
  // Bitrate for Self is zero-mean noise; must not read as a strong effect.
  EXPECT_NE(self.effect[0], EffectMagnitude::kAugments);
  EXPECT_NE(self.effect[0], EffectMagnitude::kDiminishes);
}

TEST(Distill, SingleClassSkipsTreeButSummarizes) {
  std::vector<TransitionEvent> events;
  for (int i = 0; i < 10; ++i) {
    TransitionEvent event;
    event.cls = TransitionClass::kDistinct;
    event.delta.fill(1.0);
    event.js_divergence.fill(0.1);
    events.push_back(std::move(event));
  }
  KnowledgeDistiller distiller;
  const DistilledKnowledge knowledge = distiller.distill(events);
  EXPECT_TRUE(knowledge.rules.empty());
  EXPECT_EQ(
      knowledge
          .summaries[static_cast<std::size_t>(TransitionClass::kDistinct)]
          .count,
      10u);
  EXPECT_NE(knowledge.summary_text.find("never observed"),
            std::string::npos);  // the other classes
}

TEST(Distill, JsFeaturesExtendFeatureNames) {
  const auto events = structured_events(20, 9);
  KnowledgeDistiller::Config config;
  config.include_js_features = true;
  KnowledgeDistiller distiller(config);
  const DistilledKnowledge knowledge = distiller.distill(events);
  EXPECT_EQ(knowledge.feature_names.size(), 2 * kNumAttributes);
}

TEST(Distill, EffectWording) {
  EXPECT_EQ(to_string(EffectMagnitude::kNoChange), "no change in");
  EXPECT_EQ(to_string(EffectMagnitude::kAugments), "augments");
  EXPECT_EQ(to_string(EffectMagnitude::kDiminishesLightly),
            "diminishes lightly");
}

}  // namespace
}  // namespace explora::core
