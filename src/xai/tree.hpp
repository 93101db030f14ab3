// CART decision trees built from scratch:
//   - RegressionTree: variance-reduction splits (the weak learner of the
//     gradient-boosted ensemble, and usable standalone),
//   - DecisionTreeClassifier: Gini/entropy splits with rule extraction —
//     the tool EXPLORA uses to distill knowledge from the attributed graph
//     (paper §4.3, Fig. 8/14) and the baseline that fails when applied
//     directly to the agent (Table 1).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace explora::xai {

using ml::Vector;

namespace detail {
class PresortedRows;  // one fit's presorted row orders (tree.cpp)
struct NodeRows;
}  // namespace detail

/// Training data: row-major feature matrix plus a label per row.
struct Dataset {
  std::vector<Vector> features;
  std::vector<std::size_t> labels;  ///< class ids in [0, num_classes)

  [[nodiscard]] std::size_t size() const noexcept { return features.size(); }
};

/// Internal tree node (index-linked, stored contiguously).
struct TreeNode {
  std::int32_t feature = -1;    ///< -1 for leaves
  double threshold = 0.0;       ///< go left when x[feature] <= threshold
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;           ///< regression output / majority class
  std::vector<double> class_counts;  ///< classifier leaves only
};

/// Regression tree minimizing squared error.
class RegressionTree {
 public:
  struct Config {
    std::size_t max_depth = 4;
    std::size_t min_samples_leaf = 2;
    double min_gain = 1e-9;
  };

  RegressionTree();
  explicit RegressionTree(Config config);

  /// Fits on features/targets (row-wise aligned).
  void fit(const std::vector<Vector>& features, const Vector& targets);
  [[nodiscard]] double predict(const Vector& x) const;
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// The fitted nodes in preorder (root first).
  [[nodiscard]] const std::vector<TreeNode>& nodes() const noexcept {
    return nodes_;
  }

 private:
  std::int32_t build(detail::PresortedRows& presort, const Vector& targets,
                     detail::NodeRows rows, std::size_t depth);

  Config config_;
  std::vector<TreeNode> nodes_;
};

/// Multiclass CART classifier.
class DecisionTreeClassifier {
 public:
  enum class Criterion : std::uint8_t { kGini = 0, kEntropy = 1 };

  struct Config {
    std::size_t max_depth = 4;
    std::size_t min_samples_leaf = 2;
    double min_gain = 1e-6;
    Criterion criterion = Criterion::kGini;
  };

  DecisionTreeClassifier();
  explicit DecisionTreeClassifier(Config config);

  /// @param num_classes label alphabet size (labels must be < num_classes).
  void fit(const Dataset& data, std::size_t num_classes);

  [[nodiscard]] std::size_t predict(const Vector& x) const;
  /// Class-probability vector at the reached leaf.
  [[nodiscard]] Vector predict_proba(const Vector& x) const;
  /// Fraction of rows classified correctly.
  [[nodiscard]] double accuracy(const Dataset& data) const;

  /// Total impurity decrease contributed by each feature (normalized).
  [[nodiscard]] Vector feature_importances() const;

  /// Per-feature attribution for the single root-to-leaf path `x` takes:
  /// the tree's impurity-decrease importances masked to the features
  /// actually tested on that path and renormalized to sum to 1. This is
  /// the degradation ladder's surrogate tier — a cheap, deterministic
  /// stand-in for SHAP when the serving layer has shed the model-eval
  /// budget (DESIGN.md §12). All-zero only if the tree is a single leaf.
  [[nodiscard]] Vector path_attribution(const Vector& x) const;

  /// Renders the tree as indented if/else rules using the given feature and
  /// class names (the paper's Fig. 8/14 visual form).
  [[nodiscard]] std::string to_rules(
      const std::vector<std::string>& feature_names,
      const std::vector<std::string>& class_names) const;

  /// Root-to-leaf decision paths, one string per leaf, annotated with the
  /// predicted class — the traversal the paper uses to generate knowledge.
  [[nodiscard]] std::vector<std::string> decision_paths(
      const std::vector<std::string>& feature_names,
      const std::vector<std::string>& class_names) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  /// The fitted nodes in preorder (root first).
  [[nodiscard]] const std::vector<TreeNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::size_t depth() const noexcept;
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return num_classes_;
  }

 private:
  std::int32_t build(detail::PresortedRows& presort,
                     const std::vector<std::size_t>& labels,
                     detail::NodeRows rows, std::size_t depth);
  [[nodiscard]] const TreeNode& walk(const Vector& x) const;

  Config config_;
  std::size_t num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<TreeNode> nodes_;
  Vector importances_;
};

}  // namespace explora::xai
