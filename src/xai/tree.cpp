#include "xai/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "common/contracts.hpp"
#include "common/format.hpp"

namespace explora::xai {

namespace detail {

/// One node's rows: the same range [begin, end) of every PresortedRows
/// list.
struct NodeRows {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

/// One fit's presorted row orders (DESIGN.md §16). The fit copies the
/// features once into column-major storage and sorts each feature's row
/// ids once, stably by value, into that feature's list; one more list
/// holds the ids in ascending row order. A node owns the same range of
/// every list, so it reads each feature's rows already sorted. `split`
/// stably partitions each list's range into the children's ranges, which
/// keeps every list sorted, so no node sorts again. The scratch is
/// (features + 1) x rows ids plus the column copy, freed with the fit.
class PresortedRows {
 public:
  explicit PresortedRows(const std::vector<Vector>& features)
      : num_rows_(features.size()),
        num_features_(features.front().size()),
        columns_(num_rows_ * num_features_),
        lists_((num_features_ + 1) * num_rows_),
        goes_left_(num_rows_),
        spill_(num_rows_) {
    EXPLORA_EXPECTS(num_rows_ <= std::numeric_limits<std::uint32_t>::max());
    for (std::size_t r = 0; r < num_rows_; ++r) {
      EXPLORA_EXPECTS(features[r].size() == num_features_);
      for (std::size_t f = 0; f < num_features_; ++f) {
        columns_[f * num_rows_ + r] = features[r][f];
      }
    }
    for (std::size_t list = 0; list <= num_features_; ++list) {
      const auto ids = lists_.begin() + static_cast<std::ptrdiff_t>(
                                            list * num_rows_);
      std::iota(ids, ids + static_cast<std::ptrdiff_t>(num_rows_), 0U);
      if (list == num_features_) break;  // the row-order list
      const std::span<const double> x = column(list);
      std::stable_sort(ids, ids + static_cast<std::ptrdiff_t>(num_rows_),
                       [x](std::uint32_t a, std::uint32_t b) {
                         return x[a] < x[b];
                       });
    }
  }

  [[nodiscard]] std::size_t num_features() const noexcept {
    return num_features_;
  }
  [[nodiscard]] NodeRows all() const noexcept { return {0, num_rows_}; }
  /// Feature `f`'s value of every row, indexed by row id.
  [[nodiscard]] std::span<const double> column(std::size_t f) const {
    return {columns_.data() + f * num_rows_, num_rows_};
  }
  /// The node's rows sorted by feature `f` (ties in ascending row order).
  [[nodiscard]] std::span<const std::uint32_t> sorted(std::size_t f,
                                                      NodeRows node) const {
    return {lists_.data() + f * num_rows_ + node.begin, node.size()};
  }
  /// The node's rows in ascending row order.
  [[nodiscard]] std::span<const std::uint32_t> rows(NodeRows node) const {
    return sorted(num_features_, node);
  }

  /// Sends each of the node's rows left when x[feature] <= threshold and
  /// returns the children's ranges. The split feature's own list is
  /// already in place: its left rows are a prefix.
  std::pair<NodeRows, NodeRows> split(NodeRows node, std::size_t feature,
                                      double threshold) {
    const std::span<const double> x = column(feature);
    std::size_t left_n = 0;
    for (const std::uint32_t r : rows(node)) {
      goes_left_[r] = x[r] <= threshold ? 1 : 0;
      left_n += goes_left_[r];
    }
    for (std::size_t list = 0; list <= num_features_; ++list) {
      if (list == feature) continue;
      std::uint32_t* ids = lists_.data() + list * num_rows_;
      std::size_t left = node.begin;
      std::size_t right = 0;
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::uint32_t r = ids[i];
        ids[left] = r;
        spill_[right] = r;
        left += goes_left_[r];
        right += 1U - goes_left_[r];
      }
      std::copy_n(spill_.begin(), right, ids + left);
    }
    const std::size_t mid = node.begin + left_n;
    return {{node.begin, mid}, {mid, node.end}};
  }

 private:
  std::size_t num_rows_;
  std::size_t num_features_;
  std::vector<double> columns_;  ///< columns_[f * rows + r] = x_r[f]
  std::vector<std::uint32_t> lists_;  ///< list l at [l * rows, (l+1) * rows)
  std::vector<std::uint8_t> goes_left_;  ///< per row, set by split()
  std::vector<std::uint32_t> spill_;  ///< right rows of one list's partition
};

}  // namespace detail

namespace {

using detail::NodeRows;
using detail::PresortedRows;

/// Best split found so far: a feature and a midpoint between two of its
/// distinct sorted values.
struct SplitResult {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// The CART split search both trees share. For each feature it walks the
/// node's presorted rows and scans every boundary between distinct
/// adjacent values that leaves at least `min_leaf` rows on each side.
/// `score` holds the criterion's left-side state: reset() before each
/// feature, add(row) as a row joins the left side, gain(left_n, right_n)
/// per candidate. A candidate wins when its gain beats the best so far by
/// more than `min_gain`.
template <typename Score>
SplitResult best_split(const PresortedRows& presort, NodeRows node,
                       std::size_t min_leaf, double min_gain, Score& score) {
  SplitResult best;
  const auto n = static_cast<double>(node.size());
  for (std::size_t f = 0; f < presort.num_features(); ++f) {
    const std::span<const std::uint32_t> sorted = presort.sorted(f, node);
    const std::span<const double> x = presort.column(f);
    score.reset();
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      score.add(sorted[i]);
      const double x_now = x[sorted[i]];
      const double x_next = x[sorted[i + 1]];
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
        result -= p * std::log2(p);  // det-ok: libm-transcendental (ROADMAP item 3)
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
  PresortedRows presort(features);
  build(presort, targets, presort.all(), 0);
}

std::int32_t RegressionTree::build(PresortedRows& presort,
                                   const Vector& targets, NodeRows rows,
                                   std::size_t depth) {
  const double n = static_cast<double>(rows.size());
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint32_t r : presort.rows(rows)) {
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
      presort, rows, config_.min_samples_leaf, config_.min_gain, score);
  if (!best.found) return node_index;

  const auto [left_rows, right_rows] = presort.split(
      rows, static_cast<std::size_t>(best.feature), best.threshold);
  const std::int32_t left = build(presort, targets, left_rows, depth + 1);
  const std::int32_t right = build(presort, targets, right_rows, depth + 1);
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
  PresortedRows presort(data.features);
  build(presort, data.labels, presort.all(), 0);
  // Normalize importances to sum to one (when any split was made).
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& imp : importances_) imp /= total;
  }
}

std::int32_t DecisionTreeClassifier::build(
    PresortedRows& presort, const std::vector<std::size_t>& labels,
    NodeRows rows, std::size_t depth) {
  const double n = static_cast<double>(rows.size());
  std::vector<double> counts(num_classes_, 0.0);
  for (const std::uint32_t r : presort.rows(rows)) counts[labels[r]] += 1.0;
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

  ImpurityScore score{config_.criterion, labels, counts, n, node_impurity};
  const SplitResult best = best_split(
      presort, rows, config_.min_samples_leaf, config_.min_gain, score);
  if (!best.found) return node_index;

  const auto feature = static_cast<std::size_t>(best.feature);
  importances_[feature] += best.gain * n;

  const auto [left_rows, right_rows] =
      presort.split(rows, feature, best.threshold);
  const std::int32_t left = build(presort, labels, left_rows, depth + 1);
  const std::int32_t right = build(presort, labels, right_rows, depth + 1);
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
