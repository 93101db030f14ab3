// Tests for the CART trees (xai/tree).
#include "xai/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/rng.hpp"

namespace explora::xai {
namespace {

/// Axis-separable two-class dataset: class = x0 > threshold.
Dataset separable_dataset(std::size_t n, double threshold,
                          std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector x{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    data.labels.push_back(x[0] > threshold ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  return data;
}

/// 2D XOR dataset (requires depth >= 2).
Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector x{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    data.labels.push_back((x[0] > 0.5) != (x[1] > 0.5) ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  return data;
}

TEST(DecisionTree, PerfectOnAxisSeparableData) {
  const Dataset data = separable_dataset(200, 0.4, 1);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(data), 1.0);
}

TEST(DecisionTree, SolvesXorWithDepthThree) {
  // Greedy CART has (near-)zero gain at the XOR root, so the first split
  // lands at an arbitrary position; one extra level recovers the corners.
  const Dataset data = xor_dataset(400, 3);
  DecisionTreeClassifier::Config config;
  config.max_depth = 3;
  config.min_samples_leaf = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_GT(tree.accuracy(data), 0.9);
}

TEST(DecisionTree, DepthOneCannotSolveXor) {
  const Dataset data = xor_dataset(400, 5);
  DecisionTreeClassifier::Config config;
  config.max_depth = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_LT(tree.accuracy(data), 0.7);
  EXPECT_LE(tree.depth(), 2u);  // root + leaves
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  const Dataset data = separable_dataset(40, 0.5, 7);
  DecisionTreeClassifier::Config config;
  config.min_samples_leaf = 25;  // no split can satisfy this
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_EQ(tree.node_count(), 1u);  // a single leaf
}

TEST(DecisionTree, PredictProbaSumsToOne) {
  const Dataset data = xor_dataset(100, 9);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const Vector probs = tree.predict_proba({0.3, 0.8});
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(DecisionTree, FeatureImportancesIdentifyRelevantFeature) {
  const Dataset data = separable_dataset(300, 0.5, 11);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const Vector importances = tree.feature_importances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_GT(importances[0], 0.9);  // x0 carries all the signal
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
}

TEST(DecisionTree, RulesMentionFeatureAndClassNames) {
  const Dataset data = separable_dataset(200, 0.5, 13);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const std::string rules = tree.to_rules({"alpha", "beta"}, {"low", "high"});
  EXPECT_NE(rules.find("alpha"), std::string::npos);
  EXPECT_NE(rules.find("low"), std::string::npos);
  EXPECT_NE(rules.find("high"), std::string::npos);
}

TEST(DecisionTree, DecisionPathsCoverAllLeaves) {
  const Dataset data = xor_dataset(400, 15);
  DecisionTreeClassifier::Config config;
  config.max_depth = 2;
  config.min_samples_leaf = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  const auto paths = tree.decision_paths({"x0", "x1"}, {"zero", "one"});
  EXPECT_GE(paths.size(), 3u);
  for (const auto& path : paths) {
    EXPECT_NE(path.find("->"), std::string::npos);
  }
}

TEST(DecisionTree, EntropyCriterionAlsoWorks) {
  const Dataset data = separable_dataset(200, 0.5, 17);
  DecisionTreeClassifier::Config config;
  config.criterion = DecisionTreeClassifier::Criterion::kEntropy;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(data), 1.0);
}

TEST(DecisionTree, MulticlassLabels) {
  common::Rng rng(19);
  Dataset data;
  for (int i = 0; i < 300; ++i) {
    Vector x{rng.uniform(0.0, 3.0)};
    data.labels.push_back(static_cast<std::size_t>(x[0]));  // 0, 1, 2
    data.features.push_back(std::move(x));
  }
  DecisionTreeClassifier tree;
  tree.fit(data, 3);
  EXPECT_GT(tree.accuracy(data), 0.98);
  EXPECT_EQ(tree.num_classes(), 3u);
}

TEST(RegressionTree, FitsStepFunction) {
  std::vector<Vector> features;
  Vector targets;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    features.push_back({x});
    targets.push_back(x < 0.5 ? -1.0 : 1.0);
  }
  RegressionTree tree;
  tree.fit(features, targets);
  EXPECT_NEAR(tree.predict({0.2}), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict({0.9}), 1.0, 1e-9);
}

TEST(RegressionTree, ConstantTargetsYieldSingleLeaf) {
  std::vector<Vector> features{{0.0}, {1.0}, {2.0}};
  Vector targets{5.0, 5.0, 5.0};
  RegressionTree tree;
  tree.fit(features, targets);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({7.0}), 5.0);
}

TEST(RegressionTree, DepthLimitCapsPiecewiseResolution) {
  std::vector<Vector> features;
  Vector targets;
  for (int i = 0; i < 64; ++i) {
    features.push_back({static_cast<double>(i)});
    targets.push_back(static_cast<double>(i));
  }
  RegressionTree::Config config;
  config.max_depth = 2;  // at most 4 leaves
  RegressionTree tree(config);
  tree.fit(features, targets);
  EXPECT_LE(tree.node_count(), 7u);
}

// ---- the per-node-sort builder, kept as an oracle -------------------------
//
// The builder the presorted one replaced: every node copies its rows, sorts
// them by each feature with std::sort (ties land in any order) and
// partitions them into fresh child lists. The presorted builder must grow
// the same tree (DESIGN.md §16).

struct OracleTree {
  std::vector<TreeNode> nodes;
  Vector importances;
};

struct OracleSplit {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

template <typename Score>
OracleSplit oracle_split(const std::vector<Vector>& features,
                         const std::vector<std::size_t>& rows,
                         std::size_t min_leaf, double min_gain,
                         Score& score) {
  OracleSplit best;
  const auto n = static_cast<double>(rows.size());
  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < features.front().size(); ++f) {
    std::sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
      return features[a][f] < features[b][f];
    });
    score.reset();
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      score.add(sorted[i]);
      const double x_now = features[sorted[i]][f];
      const double x_next = features[sorted[i + 1]][f];
      if (x_now == x_next) continue;
      const auto left_n = static_cast<double>(i + 1);
      const double right_n = n - left_n;
      if (left_n < static_cast<double>(min_leaf) ||
          right_n < static_cast<double>(min_leaf)) {
        continue;
      }
      const double gain = score.gain(left_n, right_n);
      if (gain > best.gain + min_gain) {
        best = {true, static_cast<std::int32_t>(f), (x_now + x_next) / 2.0,
                gain};
      }
    }
  }
  return best;
}

void oracle_partition(const std::vector<Vector>& features,
                      const std::vector<std::size_t>& rows,
                      const OracleSplit& split, std::vector<std::size_t>& left,
                      std::vector<std::size_t>& right) {
  for (std::size_t r : rows) {
    const double x = features[r][static_cast<std::size_t>(split.feature)];
    (x <= split.threshold ? left : right).push_back(r);
  }
}

double oracle_impurity(DecisionTreeClassifier::Criterion criterion,
                       const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double result = 0.0;
  if (criterion == DecisionTreeClassifier::Criterion::kGini) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += (c / total) * (c / total);
    return 1.0 - sum_sq;
  }
  for (double c : counts) {
    if (c > 0.0) result -= (c / total) * std::log2(c / total);
  }
  return result;
}

struct OracleImpurity {
  DecisionTreeClassifier::Criterion criterion;
  const std::vector<std::size_t>& labels;
  const std::vector<double>& counts;
  double n;
  double node_impurity;
  std::vector<double> left = std::vector<double>(counts.size(), 0.0);

  void reset() { std::fill(left.begin(), left.end(), 0.0); }
  void add(std::size_t row) { left[labels[row]] += 1.0; }
  double gain(double left_n, double right_n) const {
    std::vector<double> right(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      right[c] = counts[c] - left[c];
    }
    return node_impurity -
           (left_n / n) * oracle_impurity(criterion, left, left_n) -
           (right_n / n) * oracle_impurity(criterion, right, right_n);
  }
};

std::int32_t oracle_grow(const Dataset& data, std::size_t num_classes,
                         const DecisionTreeClassifier::Config& config,
                         const std::vector<std::size_t>& rows,
                         std::size_t depth, OracleTree& tree) {
  const auto n = static_cast<double>(rows.size());
  std::vector<double> counts(num_classes, 0.0);
  for (std::size_t r : rows) counts[data.labels[r]] += 1.0;
  const double node_impurity = oracle_impurity(config.criterion, counts, n);
  const auto index = static_cast<std::int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes.back().class_counts = counts;
  tree.nodes.back().value = static_cast<double>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  if (depth >= config.max_depth || rows.size() < 2 * config.min_samples_leaf ||
      node_impurity <= config.min_gain) {
    return index;
  }
  OracleImpurity score{config.criterion, data.labels, counts, n,
                       node_impurity};
  const OracleSplit best = oracle_split(data.features, rows,
                                        config.min_samples_leaf,
                                        config.min_gain, score);
  if (!best.found) return index;
  tree.importances[static_cast<std::size_t>(best.feature)] += best.gain * n;
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  oracle_partition(data.features, rows, best, left_rows, right_rows);
  const std::int32_t left =
      oracle_grow(data, num_classes, config, left_rows, depth + 1, tree);
  const std::int32_t right =
      oracle_grow(data, num_classes, config, right_rows, depth + 1, tree);
  TreeNode& node = tree.nodes[static_cast<std::size_t>(index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return index;
}

OracleTree oracle_classifier(const Dataset& data, std::size_t num_classes,
                             const DecisionTreeClassifier::Config& config) {
  OracleTree tree;
  tree.importances.assign(data.features.front().size(), 0.0);
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  oracle_grow(data, num_classes, config, rows, 0, tree);
  const double total = std::accumulate(tree.importances.begin(),
                                       tree.importances.end(), 0.0);
  if (total > 0.0) {
    for (double& imp : tree.importances) imp /= total;
  }
  return tree;
}

struct OracleSquaredError {
  const Vector& targets;
  double sum;
  double sum_sq;
  double sse;
  double left_sum = 0.0;
  double left_sq = 0.0;

  void reset() { left_sum = left_sq = 0.0; }
  void add(std::size_t row) {
    left_sum += targets[row];
    left_sq += targets[row] * targets[row];
  }
  double gain(double left_n, double right_n) const {
    const double right_sum = sum - left_sum;
    const double right_sq = sum_sq - left_sq;
    return sse - (left_sq - left_sum * left_sum / left_n) -
           (right_sq - right_sum * right_sum / right_n);
  }
};

std::int32_t oracle_grow(const std::vector<Vector>& features,
                         const Vector& targets,
                         const RegressionTree::Config& config,
                         const std::vector<std::size_t>& rows,
                         std::size_t depth, std::vector<TreeNode>& nodes) {
  const auto n = static_cast<double>(rows.size());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r : rows) {
    sum += targets[r];
    sum_sq += targets[r] * targets[r];
  }
  const double sse = sum_sq - sum * sum / n;
  const auto index = static_cast<std::int32_t>(nodes.size());
  nodes.emplace_back();
  nodes.back().value = sum / n;
  if (depth >= config.max_depth || rows.size() < 2 * config.min_samples_leaf ||
      sse <= config.min_gain) {
    return index;
  }
  OracleSquaredError score{targets, sum, sum_sq, sse};
  const OracleSplit best = oracle_split(
      features, rows, config.min_samples_leaf, config.min_gain, score);
  if (!best.found) return index;
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  oracle_partition(features, rows, best, left_rows, right_rows);
  const std::int32_t left =
      oracle_grow(features, targets, config, left_rows, depth + 1, nodes);
  const std::int32_t right =
      oracle_grow(features, targets, config, right_rows, depth + 1, nodes);
  TreeNode& node = nodes[static_cast<std::size_t>(index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return index;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Node by node: structure, threshold and value bits, class counts.
void expect_same_nodes(const std::vector<TreeNode>& got,
                       const std::vector<TreeNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "node " << i);
    EXPECT_EQ(got[i].feature, want[i].feature);
    EXPECT_EQ(got[i].left, want[i].left);
    EXPECT_EQ(got[i].right, want[i].right);
    EXPECT_EQ(bits(got[i].threshold), bits(want[i].threshold));
    EXPECT_EQ(bits(got[i].value), bits(want[i].value));
    EXPECT_EQ(got[i].class_counts, want[i].class_counts);
  }
}

/// Integer-valued features in [0, 5) and every third row duplicated, so
/// nearly every sorted column is runs of ties.
Dataset tie_heavy_dataset(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  while (data.size() < n) {
    Vector x(6);
    for (double& v : x) v = static_cast<double>(rng.index(5));
    std::size_t label =
        (x[0] + x[1] > 4.0 ? 1U : 0U) + (x[2] > 2.0 ? 2U : 0U);
    if (rng.index(5) == 0) label = rng.index(4);  // label noise
    const std::size_t copies = data.size() % 3 == 0 ? 2 : 1;
    for (std::size_t c = 0; c < copies; ++c) {
      data.features.push_back(x);
      data.labels.push_back(label);
    }
  }
  return data;
}

TEST(TreePresort, ClassifierMatchesPerNodeSortOnTies) {
  for (const auto criterion : {DecisionTreeClassifier::Criterion::kGini,
                               DecisionTreeClassifier::Criterion::kEntropy}) {
    for (const std::size_t min_leaf : {1U, 2U, 5U}) {
      for (const std::uint64_t seed : {31U, 32U, 33U}) {
        SCOPED_TRACE(testing::Message()
                     << "criterion " << static_cast<int>(criterion)
                     << ", min_leaf " << min_leaf << ", seed " << seed);
        const Dataset data = tie_heavy_dataset(300, seed);
        DecisionTreeClassifier::Config config;
        config.max_depth = 6;
        config.min_samples_leaf = min_leaf;
        config.criterion = criterion;
        DecisionTreeClassifier tree(config);
        tree.fit(data, 4);
        const OracleTree want = oracle_classifier(data, 4, config);
        ASSERT_GT(tree.node_count(), 7U);
        expect_same_nodes(tree.nodes(), want.nodes);
        const Vector importances = tree.feature_importances();
        ASSERT_EQ(importances.size(), want.importances.size());
        for (std::size_t f = 0; f < importances.size(); ++f) {
          EXPECT_EQ(bits(importances[f]), bits(want.importances[f]))
              << "feature " << f;
        }
      }
    }
  }
}

TEST(TreePresort, RegressionMatchesPerNodeSortWithoutTies) {
  for (const std::uint64_t seed : {41U, 42U, 43U}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    common::Rng rng(seed);
    std::vector<Vector> features;
    Vector targets;
    for (int i = 0; i < 400; ++i) {
      Vector x{rng.uniform(-1.0, 1.0), rng.normal(0.0, 2.0),
               rng.uniform(0.0, 10.0)};
      targets.push_back(std::sin(3.0 * x[0]) + 0.1 * x[1] * x[2] +
                        rng.normal(0.0, 0.1));
      features.push_back(std::move(x));
    }
    RegressionTree::Config config;
    config.max_depth = 5;
    RegressionTree tree(config);
    tree.fit(features, targets);
    std::vector<std::size_t> rows(features.size());
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<TreeNode> want;
    oracle_grow(features, targets, config, rows, 0, want);
    ASSERT_GT(tree.node_count(), 15U);
    expect_same_nodes(tree.nodes(), want);
  }
}

// Property sweep: deeper trees never fit the training data worse.
class TreeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeDepthSweep, TrainingAccuracyMonotoneInDepth) {
  const Dataset data = xor_dataset(500, 21);
  DecisionTreeClassifier::Config shallow_config;
  shallow_config.max_depth = GetParam();
  shallow_config.min_samples_leaf = 1;
  DecisionTreeClassifier shallow(shallow_config);
  shallow.fit(data, 2);

  DecisionTreeClassifier::Config deeper_config = shallow_config;
  deeper_config.max_depth = GetParam() + 1;
  DecisionTreeClassifier deeper(deeper_config);
  deeper.fit(data, 2);

  EXPECT_GE(deeper.accuracy(data) + 1e-12, shallow.accuracy(data));
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace explora::xai
