#include "xai/boosted.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "ml/nn.hpp"

namespace explora::xai {

GradientBoostedClassifier::GradientBoostedClassifier()
    : GradientBoostedClassifier(Config{}) {}

GradientBoostedClassifier::GradientBoostedClassifier(Config config)
    : config_(config) {
  EXPLORA_EXPECTS(config.rounds >= 1);
  EXPLORA_EXPECTS(config.learning_rate > 0.0);
}

void GradientBoostedClassifier::fit(const Dataset& data,
                                    std::size_t num_classes) {
  EXPLORA_EXPECTS(data.size() > 0);
  EXPLORA_EXPECTS(num_classes >= 2);
  num_classes_ = num_classes;
  ensemble_.clear();

  const std::size_t n = data.size();
  // Class-prior base scores (log of empirical frequency, floored).
  base_scores_.assign(num_classes_, 0.0);
  {
    Vector freq(num_classes_, 0.0);
    for (std::size_t label : data.labels) freq[label] += 1.0;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      base_scores_[c] =
          detmath::log(std::max(freq[c] / static_cast<double>(n), 1e-6));
    }
  }

  // scores[i][c]: current additive model output per row.
  std::vector<Vector> scores(n, base_scores_);
  std::vector<Vector> probs(n, Vector(num_classes_, 0.0));

  for (std::size_t round = 0; round < config_.rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      probs[i] = scores[i];
      ml::softmax(probs[i]);
    }
    std::vector<RegressionTree> round_trees;
    round_trees.reserve(num_classes_);
    for (std::size_t c = 0; c < num_classes_; ++c) {
      // Negative gradient of softmax cross-entropy: y_c - p_c.
      Vector residuals(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const double y = data.labels[i] == c ? 1.0 : 0.0;
        residuals[i] = y - probs[i][c];
      }
      RegressionTree tree(config_.tree);
      tree.fit(data.features, residuals);
      for (std::size_t i = 0; i < n; ++i) {
        scores[i][c] +=
            config_.learning_rate * tree.predict(data.features[i]);
      }
      round_trees.push_back(std::move(tree));
    }
    ensemble_.push_back(std::move(round_trees));
  }
}

Vector GradientBoostedClassifier::decision_function(const Vector& x) const {
  EXPLORA_EXPECTS(num_classes_ > 0);
  Vector scores = base_scores_;
  for (const auto& round_trees : ensemble_) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      scores[c] += config_.learning_rate * round_trees[c].predict(x);
    }
  }
  return scores;
}

Vector GradientBoostedClassifier::predict_proba(const Vector& x) const {
  Vector scores = decision_function(x);
  ml::softmax(scores);
  return scores;
}

std::size_t GradientBoostedClassifier::predict(const Vector& x) const {
  const Vector scores = decision_function(x);
  return static_cast<std::size_t>(
      std::distance(scores.begin(),
                    std::max_element(scores.begin(), scores.end())));
}

double GradientBoostedClassifier::accuracy(const Dataset& data) const {
  EXPLORA_EXPECTS(data.size() > 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.features[i]) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace explora::xai
