#include "xai/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/format.hpp"

namespace explora::xai {

namespace {

/// Best split found so far: a feature and a midpoint between two of its
/// distinct sorted values.
struct SplitResult {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// The CART split search both trees share. For each feature it sorts the
/// rows by that column and scans every boundary between distinct adjacent
/// values that leaves at least `min_leaf` rows on each side. `score` holds
/// the criterion's left-side state: reset() before each feature, add(row)
/// as a row joins the left side, gain(left_n, right_n) per candidate. A
/// candidate wins when its gain beats the best so far by more than
/// `min_gain`.
template <typename Score>
SplitResult best_split(const std::vector<Vector>& features,
                       const std::vector<std::size_t>& rows,
                       std::size_t min_leaf, double min_gain, Score& score) {
  SplitResult best;
  const double n = static_cast<double>(rows.size());
  const std::size_t num_features = features.front().size();
  std::vector<std::size_t> sorted = rows;
  for (std::size_t f = 0; f < num_features; ++f) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) {
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
        best.found = true;
        best.feature = static_cast<std::int32_t>(f);
        best.threshold = (x_now + x_next) / 2.0;
        best.gain = gain;
      }
    }
  }
  return best;
}

/// Splits `rows` by `split` into the rows that go left and right.
void partition(const std::vector<Vector>& features,
               const std::vector<std::size_t>& rows, const SplitResult& split,
               std::vector<std::size_t>& left, std::vector<std::size_t>& right) {
  for (std::size_t r : rows) {
    if (features[r][static_cast<std::size_t>(split.feature)] <=
        split.threshold) {
      left.push_back(r);
    } else {
      right.push_back(r);
    }
  }
}

/// Squared-error reduction from running left-side sums.
struct SquaredErrorScore {
  const Vector& targets;
  double sum;
  double sum_sq;
  double sse;
  double left_sum = 0.0;
  double left_sq = 0.0;

  void reset() {
    left_sum = 0.0;
    left_sq = 0.0;
  }
  void add(std::size_t row) {
    const double y = targets[row];
    left_sum += y;
    left_sq += y * y;
  }
  [[nodiscard]] double gain(double left_n, double right_n) const {
    const double right_sum = sum - left_sum;
    const double right_sq = sum_sq - left_sq;
    const double left_sse = left_sq - left_sum * left_sum / left_n;
    const double right_sse = right_sq - right_sum * right_sum / right_n;
    return sse - left_sse - right_sse;
  }
};

using Criterion = DecisionTreeClassifier::Criterion;

double impurity(Criterion criterion, const std::vector<double>& counts,
                double total) {
  if (total <= 0.0) return 0.0;
  double result = 0.0;
  if (criterion == Criterion::kGini) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += (c / total) * (c / total);
    result = 1.0 - sum_sq;
  } else {
    for (double c : counts) {
      if (c > 0.0) {
        const double p = c / total;
        result -= p * std::log2(p);
      }
    }
  }
  return result;
}

/// Impurity decrease from running left-side class counts; the right
/// side's counts are the node's minus these, in one reused scratch.
struct ImpurityScore {
  Criterion criterion;
  const std::vector<std::size_t>& labels;
  const std::vector<double>& counts;
  double n;
  double node_impurity;
  std::vector<double> left = std::vector<double>(counts.size(), 0.0);
  std::vector<double> right = std::vector<double>(counts.size(), 0.0);

  void reset() { std::fill(left.begin(), left.end(), 0.0); }
  void add(std::size_t row) { left[labels[row]] += 1.0; }
  [[nodiscard]] double gain(double left_n, double right_n) {
    for (std::size_t c = 0; c < counts.size(); ++c) {
      right[c] = counts[c] - left[c];
    }
    return node_impurity - (left_n / n) * impurity(criterion, left, left_n) -
           (right_n / n) * impurity(criterion, right, right_n);
  }
};

}  // namespace

RegressionTree::RegressionTree() : RegressionTree(Config{}) {}

RegressionTree::RegressionTree(Config config) : config_(config) {
  EXPLORA_EXPECTS(config.max_depth >= 1);
  EXPLORA_EXPECTS(config.min_samples_leaf >= 1);
}

void RegressionTree::fit(const std::vector<Vector>& features,
                         const Vector& targets) {
  EXPLORA_EXPECTS(!features.empty());
  EXPLORA_EXPECTS(features.size() == targets.size());
  nodes_.clear();
  std::vector<std::size_t> rows(features.size());
  std::iota(rows.begin(), rows.end(), 0);
  build(features, targets, rows, 0);
}

std::int32_t RegressionTree::build(const std::vector<Vector>& features,
                                   const Vector& targets,
                                   std::vector<std::size_t>& rows,
                                   std::size_t depth) {
  const double n = static_cast<double>(rows.size());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r : rows) {
    sum += targets[r];
    sum_sq += targets[r] * targets[r];
  }
  const double mean = sum / n;
  const double sse = sum_sq - sum * sum / n;

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].value = mean;

  if (depth >= config_.max_depth ||
      rows.size() < 2 * config_.min_samples_leaf || sse <= config_.min_gain) {
    return node_index;
  }

  SquaredErrorScore score{targets, sum, sum_sq, sse};
  const SplitResult best = best_split(
      features, rows, config_.min_samples_leaf, config_.min_gain, score);
  if (!best.found) return node_index;

  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  partition(features, rows, best, left_rows, right_rows);
  const std::int32_t left = build(features, targets, left_rows, depth + 1);
  const std::int32_t right = build(features, targets, right_rows, depth + 1);
  TreeNode& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

double RegressionTree::predict(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  const TreeNode* node = &nodes_.front();
  while (node->feature >= 0) {
    node = x[static_cast<std::size_t>(node->feature)] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  return node->value;
}

DecisionTreeClassifier::DecisionTreeClassifier()
    : DecisionTreeClassifier(Config{}) {}

DecisionTreeClassifier::DecisionTreeClassifier(Config config)
    : config_(config) {
  EXPLORA_EXPECTS(config.max_depth >= 1);
  EXPLORA_EXPECTS(config.min_samples_leaf >= 1);
}

void DecisionTreeClassifier::fit(const Dataset& data,
                                 std::size_t num_classes) {
  EXPLORA_EXPECTS(data.size() > 0);
  EXPLORA_EXPECTS(data.features.size() == data.labels.size());
  EXPLORA_EXPECTS(num_classes >= 2);
  for (std::size_t label : data.labels) {
    EXPLORA_EXPECTS(label < num_classes);
  }
  num_classes_ = num_classes;
  num_features_ = data.features.front().size();
  nodes_.clear();
  importances_.assign(num_features_, 0.0);
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0);
  build(data, rows, 0);
  // Normalize importances to sum to one (when any split was made).
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& imp : importances_) imp /= total;
  }
}

std::int32_t DecisionTreeClassifier::build(const Dataset& data,
                                           std::vector<std::size_t>& rows,
                                           std::size_t depth) {
  const double n = static_cast<double>(rows.size());
  std::vector<double> counts(num_classes_, 0.0);
  for (std::size_t r : rows) counts[data.labels[r]] += 1.0;
  const double node_impurity = impurity(config_.criterion, counts, n);

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  {
    TreeNode& node = nodes_.back();
    node.class_counts = counts;
    node.value = static_cast<double>(static_cast<std::size_t>(
        std::distance(counts.begin(),
                      std::max_element(counts.begin(), counts.end()))));
  }

  if (depth >= config_.max_depth ||
      rows.size() < 2 * config_.min_samples_leaf ||
      node_impurity <= config_.min_gain) {
    return node_index;
  }

  ImpurityScore score{config_.criterion, data.labels, counts, n,
                      node_impurity};
  const SplitResult best = best_split(
      data.features, rows, config_.min_samples_leaf, config_.min_gain, score);
  if (!best.found) return node_index;

  importances_[static_cast<std::size_t>(best.feature)] += best.gain * n;

  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  partition(data.features, rows, best, left_rows, right_rows);
  const std::int32_t left = build(data, left_rows, depth + 1);
  const std::int32_t right = build(data, right_rows, depth + 1);
  TreeNode& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const TreeNode& DecisionTreeClassifier::walk(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  EXPLORA_EXPECTS(x.size() == num_features_);
  const TreeNode* node = &nodes_.front();
  while (node->feature >= 0) {
    node = x[static_cast<std::size_t>(node->feature)] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  return *node;
}

std::size_t DecisionTreeClassifier::predict(const Vector& x) const {
  return static_cast<std::size_t>(walk(x).value);
}

Vector DecisionTreeClassifier::predict_proba(const Vector& x) const {
  const TreeNode& leaf = walk(x);
  const double total = std::accumulate(leaf.class_counts.begin(),
                                       leaf.class_counts.end(), 0.0);
  Vector probs(num_classes_, 0.0);
  if (total > 0.0) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      probs[c] = leaf.class_counts[c] / total;
    }
  }
  return probs;
}

double DecisionTreeClassifier::accuracy(const Dataset& data) const {
  EXPLORA_EXPECTS(data.size() > 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.features[i]) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

Vector DecisionTreeClassifier::feature_importances() const {
  return importances_;
}

Vector DecisionTreeClassifier::path_attribution(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  EXPLORA_EXPECTS(x.size() == num_features_);
  Vector attribution(num_features_, 0.0);
  const TreeNode* node = &nodes_.front();
  double total = 0.0;
  while (node->feature >= 0) {
    const auto f = static_cast<std::size_t>(node->feature);
    const bool unseen =
        attribution[f] == 0.0;  // det-ok: float-eq (sentinel we wrote)
    if (unseen && importances_[f] > 0.0) {
      attribution[f] = importances_[f];
      total += importances_[f];
    }
    node = x[f] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  if (total > 0.0) {
    for (double& a : attribution) a /= total;
  }
  return attribution;
}

std::size_t DecisionTreeClassifier::depth() const noexcept {
  // Iterative depth computation over the index-linked nodes.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
    if (node.feature >= 0) {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  return max_depth;
}

std::string DecisionTreeClassifier::to_rules(
    const std::vector<std::string>& feature_names,
    const std::vector<std::string>& class_names) const {
  EXPLORA_EXPECTS(feature_names.size() == num_features_);
  EXPLORA_EXPECTS(class_names.size() == num_classes_);
  std::string out;
  std::function<void(std::int32_t, std::size_t)> render =
      [&](std::int32_t index, std::size_t indent) {
        const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
        const std::string pad(indent * 2, ' ');
        if (node.feature < 0) {
          const double total = std::accumulate(node.class_counts.begin(),
                                               node.class_counts.end(), 0.0);
          const auto cls = static_cast<std::size_t>(node.value);
          out += common::format("{}-> {} ({} samples, {:.0f}% purity)\n", pad,
                                class_names[cls], total,
                                total > 0.0
                                    ? node.class_counts[cls] / total * 100.0
                                    : 0.0);
          return;
        }
        out += common::format(
            "{}if {} <= {:.4f}:\n", pad,
            feature_names[static_cast<std::size_t>(node.feature)],
            node.threshold);
        render(node.left, indent + 1);
        out += common::format(
            "{}else:  # {} > {:.4f}\n", pad,
            feature_names[static_cast<std::size_t>(node.feature)],
            node.threshold);
        render(node.right, indent + 1);
      };
  render(0, 0);
  return out;
}

std::vector<std::string> DecisionTreeClassifier::decision_paths(
    const std::vector<std::string>& feature_names,
    const std::vector<std::string>& class_names) const {
  EXPLORA_EXPECTS(feature_names.size() == num_features_);
  EXPLORA_EXPECTS(class_names.size() == num_classes_);
  std::vector<std::string> paths;
  std::function<void(std::int32_t, std::string)> visit =
      [&](std::int32_t index, std::string prefix) {
        const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
        if (node.feature < 0) {
          const auto cls = static_cast<std::size_t>(node.value);
          paths.push_back(prefix.empty()
                              ? common::format("always -> {}",
                                               class_names[cls])
                              : common::format("{} -> {}", prefix,
                                               class_names[cls]));
          return;
        }
        const std::string& name =
            feature_names[static_cast<std::size_t>(node.feature)];
        const std::string left_cond =
            common::format("{} <= {:.4f}", name, node.threshold);
        const std::string right_cond =
            common::format("{} > {:.4f}", name, node.threshold);
        visit(node.left,
              prefix.empty() ? left_cond : prefix + " AND " + left_cond);
        visit(node.right,
              prefix.empty() ? right_cond : prefix + " AND " + right_cond);
      };
  visit(0, "");
  return paths;
}

}  // namespace explora::xai
