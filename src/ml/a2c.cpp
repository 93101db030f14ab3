#include "ml/a2c.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "netsim/types.hpp"

namespace explora::ml {

namespace {

constexpr double kProbFloor = 1e-12;

std::size_t sample_categorical(std::span<const double> probs,
                               common::Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    acc += probs[i];
    if (u < acc) return i;
  }
  return probs.size() - 1;
}

}  // namespace

A2cAgent::A2cAgent(std::uint64_t seed) : A2cAgent(Config{}, seed) {}

A2cAgent::A2cAgent(Config config, std::uint64_t seed)
    : config_(config),
      init_rng_(seed),
      actor_({config_.state_dim, config_.hidden_dim, config_.hidden_dim,
              head_offsets()[kNumHeads]},
             Activation::kTanh, Activation::kLinear, init_rng_),
      critic_({config_.state_dim, config_.hidden_dim, config_.hidden_dim, 1},
              Activation::kTanh, Activation::kLinear, init_rng_) {
  AdamOptimizer::Config opt;
  opt.learning_rate = config_.learning_rate;
  actor_opt_ = AdamOptimizer(opt);
  critic_opt_ = AdamOptimizer(opt);
  actor_opt_.attach(actor_);
  critic_opt_.attach(critic_);
}

std::vector<Vector> A2cAgent::split_softmax(
    std::span<const double> logits,
    const std::array<double, kNumHeads>& temperatures) const {
  const auto offsets = head_offsets();
  std::vector<Vector> heads;
  heads.reserve(kNumHeads);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    EXPLORA_EXPECTS(temperatures[h] > 0.0);
    Vector head(logits.begin() + static_cast<std::ptrdiff_t>(offsets[h]),
                logits.begin() + static_cast<std::ptrdiff_t>(offsets[h + 1]));
    if (temperatures[h] != 1.0) {  // det-ok: float-eq (skip exact identity temperature)
      for (double& v : head) v /= temperatures[h];
    }
    softmax(head);
    EXPLORA_AUDIT_MSG(contracts::is_probability_simplex(head),
                      "A2C head {} is not a probability distribution", h);
    heads.push_back(std::move(head));
  }
  return heads;
}

PolicyDecision A2cAgent::decide(std::span<const double> state,
                                common::Rng* rng,
                                const std::array<double, kNumHeads>&
                                    temperatures) const {
  Vector logits(actor_.out_size(), 0.0);
  actor_.infer(state, logits);
  const auto heads = split_softmax(logits, temperatures);

  PolicyDecision decision;
  std::array<std::size_t, kNumHeads> chosen{};
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    if (rng != nullptr) {
      chosen[h] = sample_categorical(heads[h], *rng);
    } else {
      chosen[h] = static_cast<std::size_t>(
          std::distance(heads[h].begin(),
                        std::max_element(heads[h].begin(), heads[h].end())));
    }
    const double p = std::max(heads[h][chosen[h]], kProbFloor);
    decision.log_prob += std::log(p);
    decision.head_probs[h] = heads[h][chosen[h]];
  }
  decision.action.prb_choice = chosen[0];
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    decision.action.sched_choice[s] = chosen[1 + s];
  }
  decision.value = value(state);
  return decision;
}

PolicyDecision A2cAgent::act_greedy(std::span<const double> state) const {
  std::array<double, kNumHeads> unit{};
  unit.fill(1.0);
  return decide(state, nullptr, unit);
}

PolicyDecision A2cAgent::act(
    std::span<const double> state, common::Rng& rng,
    const std::array<double, kNumHeads>& temperatures) const {
  return decide(state, &rng, temperatures);
}

std::vector<Vector> A2cAgent::head_distributions(
    std::span<const double> state) const {
  Vector logits(actor_.out_size(), 0.0);
  actor_.infer(state, logits);
  std::array<double, kNumHeads> unit{};
  unit.fill(1.0);
  return split_softmax(logits, unit);
}

Matrix A2cAgent::chosen_probabilities(const Matrix& states,
                                      const AgentAction& chosen) const {
  Matrix logits = actor_.forward_batch(states);
  return softmax_chosen(logits, chosen, "A2C");
}

double A2cAgent::value(std::span<const double> state) const {
  Vector out(1, 0.0);
  critic_.infer(state, out);
  return out[0];
}

double A2cAgent::update(const std::vector<Transition>& rollout,
                        double bootstrap_value) {
  EXPLORA_EXPECTS(!rollout.empty());
  const auto offsets = head_offsets();

  // n-step discounted returns from the tail.
  Vector returns(rollout.size(), 0.0);
  double running = bootstrap_value;
  for (std::size_t i = rollout.size(); i-- > 0;) {
    running = rollout[i].terminal
                  ? rollout[i].reward
                  : rollout[i].reward + config_.gamma * running;
    returns[i] = running;
  }

  actor_.zero_grad();
  critic_.zero_grad();
  const double n = static_cast<double>(rollout.size());
  double total_loss = 0.0;
  for (std::size_t i = 0; i < rollout.size(); ++i) {
    const Transition& step = rollout[i];
    const auto chosen = std::array<std::size_t, kNumHeads>{
        step.action.prb_choice, step.action.sched_choice[0],
        step.action.sched_choice[1], step.action.sched_choice[2]};

    // Critic: value regression toward the n-step return.
    const Vector& v = critic_.forward(step.state);
    const double advantage = returns[i] - v[0];
    critic_.backward(Vector{2.0 * config_.value_coef * (v[0] - returns[i]) /
                            n});

    // Actor: vanilla policy gradient with the critic baseline + entropy.
    const Vector& logits = actor_.forward(step.state);
    std::array<double, kNumHeads> unit{};
    unit.fill(1.0);
    const auto heads = split_softmax(logits, unit);
    Vector logit_grad(logits.size(), 0.0);
    double entropy = 0.0;
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      const auto& p = heads[h];
      double mean_logp = 0.0;
      for (double pj : p) {
        const double clamped = std::max(pj, kProbFloor);
        entropy -= clamped * std::log(clamped);
        mean_logp += clamped * std::log(clamped);
      }
      for (std::size_t j = 0; j < p.size(); ++j) {
        const double pj = std::max(p[j], kProbFloor);
        const double dlogp = (j == chosen[h] ? 1.0 : 0.0) - p[j];
        const double dent = -pj * (std::log(pj) - mean_logp);
        logit_grad[offsets[h] + j] =
            -(advantage * dlogp + config_.entropy_coef * dent) / n;
      }
    }
    actor_.backward(logit_grad);
    total_loss += -advantage * step.log_prob +
                  config_.value_coef * advantage * advantage;
  }
  actor_opt_.step();
  critic_opt_.step();
  return total_loss / n;
}

void A2cAgent::serialize(common::Writer& writer) const {
  writer.varint(config_.state_dim);
  writer.varint(config_.hidden_dim);
  actor_.serialize(writer);
  critic_.serialize(writer);
}

void A2cAgent::deserialize(common::Reader& reader) {
  if (reader.varint() != config_.state_dim ||
      reader.varint() != config_.hidden_dim) {
    throw common::SerializeError("A2C shape mismatch");
  }
  actor_.deserialize(reader);
  critic_.deserialize(reader);
}

}  // namespace explora::ml
