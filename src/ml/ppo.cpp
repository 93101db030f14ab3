#include "ml/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "netsim/types.hpp"

namespace explora::ml {

namespace {

/// Samples an index from a probability vector.
std::size_t sample_categorical(std::span<const double> probs,
                               common::Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;  // numerical slack
}

std::size_t argmax(std::span<const double> values) {
  return static_cast<std::size_t>(
      std::distance(values.begin(),
                    std::max_element(values.begin(), values.end())));
}

constexpr double kProbFloor = 1e-12;

}  // namespace

void RolloutBuffer::add(Transition transition) {
  steps_.push_back(std::move(transition));
}

void RolloutBuffer::clear() noexcept {
  steps_.clear();
  advantages_.clear();
  returns_.clear();
}

void RolloutBuffer::compute_gae(double gamma, double lambda,
                                double bootstrap_value) {
  const std::size_t n = steps_.size();
  advantages_.assign(n, 0.0);
  returns_.assign(n, 0.0);
  if (n == 0) return;
  double gae = 0.0;
  double next_value = bootstrap_value;
  for (std::size_t i = n; i-- > 0;) {
    const Transition& step = steps_[i];
    const double not_terminal = step.terminal ? 0.0 : 1.0;
    const double delta =
        step.reward + gamma * next_value * not_terminal - step.value;
    gae = delta + gamma * lambda * not_terminal * gae;
    advantages_[i] = gae;
    returns_[i] = gae + step.value;
    next_value = step.value;
  }
  // Normalize advantages (standard PPO practice).
  const double mean =
      std::accumulate(advantages_.begin(), advantages_.end(), 0.0) /
      static_cast<double>(n);
  double var = 0.0;
  for (double a : advantages_) var += (a - mean) * (a - mean);
  const double stddev = std::sqrt(var / static_cast<double>(n)) + 1e-8;
  for (double& a : advantages_) a = (a - mean) / stddev;
}

PpoAgent::PpoAgent(std::uint64_t seed) : PpoAgent(Config{}, seed) {}

PpoAgent::PpoAgent(Config config, std::uint64_t seed)
    : config_(config),
      init_rng_(seed),
      actor_({config_.state_dim, config_.hidden_dim, config_.hidden_dim,
              head_offsets()[kNumHeads]},
             Activation::kTanh, Activation::kLinear, init_rng_),
      critic_({config_.state_dim, config_.hidden_dim, config_.hidden_dim, 1},
              Activation::kTanh, Activation::kLinear, init_rng_),
      shuffle_rng_(init_rng_.fork("shuffle")) {
  EXPLORA_EXPECTS(actor_.out_size() <= kMaxLogits);
  telemetry::Scope scope("ml.ppo");
  tm_updates_ = &scope.counter("updates");
  tm_epochs_ = &scope.counter("epochs");
  tm_minibatches_ = &scope.counter("minibatches");
  static constexpr std::int64_t kStepBounds[] = {32, 64, 128, 256, 512, 1024};
  tm_rollout_steps_ = &scope.histogram("rollout_steps", kStepBounds);
  static constexpr std::int64_t kRowBounds[] = {8, 16, 32, 64, 128};
  tm_minibatch_rows_ = &scope.histogram("minibatch_rows", kRowBounds);
  AdamOptimizer::Config opt;
  opt.learning_rate = config_.learning_rate;
  actor_opt_ = AdamOptimizer(opt);
  critic_opt_ = AdamOptimizer(opt);
  actor_opt_.attach(actor_);
  critic_opt_.attach(critic_);
}

void PpoAgent::softmax_heads(
    std::span<double> logits,
    const std::array<double, kNumHeads>& temperatures) const {
  const auto offsets = head_offsets();
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    EXPLORA_EXPECTS(temperatures[h] > 0.0);
    const std::span<double> head =
        logits.subspan(offsets[h], offsets[h + 1] - offsets[h]);
    if (temperatures[h] != 1.0) {  // det-ok: float-eq (skip exact identity temperature)
      for (double& v : head) v /= temperatures[h];
    }
    softmax(head);
    EXPLORA_AUDIT_MSG(contracts::is_probability_simplex(head),
                      "PPO head {} is not a probability distribution", h);
  }
}

std::vector<Vector> PpoAgent::split_softmax(
    std::span<const double> logits,
    const std::array<double, kNumHeads>& temperatures) const {
  Vector probs(logits.begin(), logits.end());
  softmax_heads(probs, temperatures);
  const auto offsets = head_offsets();
  std::vector<Vector> heads;
  heads.reserve(kNumHeads);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    heads.emplace_back(probs.begin() + static_cast<std::ptrdiff_t>(offsets[h]),
                       probs.begin() +
                           static_cast<std::ptrdiff_t>(offsets[h + 1]));
  }
  return heads;
}

namespace {

[[nodiscard]] std::array<double, kNumHeads> uniform_temperatures(
    double temperature) {
  std::array<double, kNumHeads> temps{};
  temps.fill(temperature);
  return temps;
}

}  // namespace

PolicyDecision PpoAgent::act(std::span<const double> state,
                             common::Rng& rng, double temperature) const {
  return act(state, rng, uniform_temperatures(temperature));
}

template <typename Choose>
PolicyDecision PpoAgent::decide(
    std::span<const double> state,
    const std::array<double, kNumHeads>& temperatures, Choose choose) const {
  // The actor's logits, then each head's probabilities in place, on the
  // stack: a decision allocates nothing.
  std::array<double, kMaxLogits> buffer;
  const std::span<double> probs(buffer.data(), actor_.out_size());
  actor_.infer(state, probs);
  softmax_heads(probs, temperatures);

  const auto offsets = head_offsets();
  PolicyDecision decision;
  std::array<std::size_t, kNumHeads> chosen{};
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    const std::span<const double> head =
        probs.subspan(offsets[h], offsets[h + 1] - offsets[h]);
    chosen[h] = choose(head);
    const double p = std::max(head[chosen[h]], kProbFloor);
    decision.log_prob += detmath::log(p);
    decision.head_probs[h] = head[chosen[h]];
  }
  decision.action.prb_choice = chosen[0];
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    decision.action.sched_choice[s] = chosen[1 + s];
  }
  return decision;
}

PolicyDecision PpoAgent::act(
    std::span<const double> state, common::Rng& rng,
    const std::array<double, kNumHeads>& temperatures) const {
  return decide(state, temperatures, [&rng](std::span<const double> head) {
    return sample_categorical(head, rng);
  });
}

PolicyDecision PpoAgent::act_greedy(std::span<const double> state) const {
  return decide(state, uniform_temperatures(1.0),
                [](std::span<const double> head) { return argmax(head); });
}

double PpoAgent::value(std::span<const double> state) const {
  std::array<double, 1> out{};
  critic_.infer(state, out);
  return out[0];
}

std::vector<Vector> PpoAgent::head_distributions(
    std::span<const double> state) const {
  Vector logits(actor_.out_size(), 0.0);
  actor_.infer(state, logits);
  return split_softmax(logits, uniform_temperatures(1.0));
}

Matrix PpoAgent::chosen_probabilities(const Matrix& states,
                                      const AgentAction& chosen) const {
  Matrix logits = actor_.forward_batch(states);
  return softmax_chosen(logits, chosen, "PPO");
}

double PpoAgent::update(const RolloutBuffer& buffer) {
  const auto& steps = buffer.steps();
  const auto& advantages = buffer.advantages();
  const auto& returns = buffer.returns();
  EXPLORA_EXPECTS(!steps.empty());
  EXPLORA_EXPECTS(advantages.size() == steps.size());

  const auto offsets = head_offsets();
  std::vector<std::size_t> order(steps.size());
  std::iota(order.begin(), order.end(), 0);

  tm_updates_->add(1);
  tm_rollout_steps_->observe(static_cast<std::int64_t>(steps.size()));

  double last_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.update_epochs; ++epoch) {
    shuffle_rng_.shuffle(order);
    tm_epochs_->add(1);
    last_epoch_loss = 0.0;
    std::size_t cursor = 0;
    while (cursor < order.size()) {
      const std::size_t batch_end =
          std::min(cursor + config_.minibatch_size, order.size());
      const double batch_n = static_cast<double>(batch_end - cursor);
      tm_minibatches_->add(1);
      tm_minibatch_rows_->observe(
          static_cast<std::int64_t>(batch_end - cursor));
      actor_.zero_grad();
      critic_.zero_grad();
      double batch_loss = 0.0;
      for (std::size_t b = cursor; b < batch_end; ++b) {
        const std::size_t i = order[b];
        const Transition& step = steps[i];
        const double advantage = advantages[i];

        // ---- Actor ----
        const Vector& logits = actor_.forward(step.state);
        const auto heads = split_softmax(logits, uniform_temperatures(1.0));
        const auto chosen = head_choices(step.action);
        double new_log_prob = 0.0;
        for (std::size_t h = 0; h < kNumHeads; ++h) {
          new_log_prob +=
              detmath::log(std::max(heads[h][chosen[h]], kProbFloor));
        }
        const double ratio = detmath::exp(new_log_prob - step.log_prob);
        const double clipped = std::clamp(ratio, 1.0 - config_.clip_epsilon,
                                          1.0 + config_.clip_epsilon);
        const double surrogate =
            std::min(ratio * advantage, clipped * advantage);
        // The clipped-surrogate gradient flows only when the unclipped
        // branch is active.
        const bool pass_through = ratio * advantage <= clipped * advantage;
        const double dsurr_dlogp = pass_through ? ratio * advantage : 0.0;

        double entropy = 0.0;
        Vector logit_grad(logits.size(), 0.0);
        for (std::size_t h = 0; h < kNumHeads; ++h) {
          const auto& p = heads[h];
          // Entropy and its logit gradient.
          double h_ent = 0.0;
          double mean_logp_term = 0.0;
          for (std::size_t j = 0; j < p.size(); ++j) {
            const double pj = std::max(p[j], kProbFloor);
            h_ent -= pj * detmath::log(pj);
            mean_logp_term += pj * detmath::log(pj);
          }
          entropy += h_ent;
          for (std::size_t j = 0; j < p.size(); ++j) {
            const double pj = std::max(p[j], kProbFloor);
            // d(-logp_chosen)/dlogit_j = p_j - 1[j == chosen]
            const double dlogp =
                (j == chosen[h] ? 1.0 : 0.0) - p[j];
            // dH/dlogit_j = -p_j (log p_j - sum_k p_k log p_k)
            const double dent = -pj * (detmath::log(pj) - mean_logp_term);
            // Loss = -(surrogate + entropy_coef * H); average over batch.
            logit_grad[offsets[h] + j] =
                -(dsurr_dlogp * dlogp + config_.entropy_coef * dent) /
                batch_n;
          }
        }
        actor_.backward(logit_grad);

        // ---- Critic ----
        const Vector& v = critic_.forward(step.state);
        const double value_error = v[0] - returns[i];
        Vector value_grad(1, 2.0 * config_.value_coef * value_error / batch_n);
        critic_.backward(value_grad);

        batch_loss += -surrogate - config_.entropy_coef * entropy +
                      config_.value_coef * value_error * value_error;
      }
      actor_opt_.step();
      critic_opt_.step();
      last_epoch_loss += batch_loss;
      cursor = batch_end;
    }
    last_epoch_loss /= static_cast<double>(steps.size());
  }
  return last_epoch_loss;
}

void PpoAgent::serialize(common::Writer& writer) const {
  writer.varint(config_.state_dim);
  writer.varint(config_.hidden_dim);
  actor_.serialize(writer);
  critic_.serialize(writer);
}

void PpoAgent::deserialize(common::Reader& reader) {
  if (reader.varint() != config_.state_dim ||
      reader.varint() != config_.hidden_dim) {
    throw common::SerializeError("agent shape mismatch");
  }
  actor_.deserialize(reader);
  critic_.deserialize(reader);
}

}  // namespace explora::ml
