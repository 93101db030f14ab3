#include "ml/dqn.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "netsim/types.hpp"

namespace explora::ml {

namespace {

std::size_t argmax_range(std::span<const double> values, std::size_t begin,
                         std::size_t end) {
  std::size_t best = begin;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best - begin;
}

}  // namespace

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  EXPLORA_EXPECTS(capacity > 0);
}

void ReplayBuffer::add(DqnExperience experience) {
  buffer_.push_back(std::move(experience));
  while (buffer_.size() > capacity_) buffer_.pop_front();
}

const DqnExperience& ReplayBuffer::sample(common::Rng& rng) const {
  EXPLORA_EXPECTS(!buffer_.empty());
  return buffer_[rng.index(buffer_.size())];
}

DqnAgent::DqnAgent(std::uint64_t seed) : DqnAgent(Config{}, seed) {}

DqnAgent::DqnAgent(Config config, std::uint64_t seed)
    : config_(config),
      init_rng_(seed),
      online_({config_.state_dim, config_.hidden_dim, config_.hidden_dim,
               head_offsets()[kNumHeads]},
              Activation::kRelu, Activation::kLinear, init_rng_),
      target_({config_.state_dim, config_.hidden_dim, config_.hidden_dim,
               head_offsets()[kNumHeads]},
              Activation::kRelu, Activation::kLinear, init_rng_) {
  AdamOptimizer::Config opt;
  opt.learning_rate = config_.learning_rate;
  optimizer_ = AdamOptimizer(opt);
  optimizer_.attach(online_);
  sync_target();
}

void DqnAgent::sync_target() {
  // Copy weights via the serialization path (keeps one code path exact).
  common::Writer writer;
  online_.serialize(writer);
  common::Reader reader(writer.buffer());
  target_.deserialize(reader);
}

Vector DqnAgent::q_values(const Mlp& network,
                          std::span<const double> state) const {
  Vector q(network.out_size(), 0.0);
  network.infer(state, q);
  EXPLORA_AUDIT_MSG(contracts::all_finite(q),
                    "DQN produced non-finite Q-values over {} actions",
                    q.size());
  return q;
}

AgentAction DqnAgent::greedy_from(
    const Vector& q, const std::array<std::size_t, kNumHeads + 1>& offsets) {
  AgentAction action;
  action.prb_choice = argmax_range(q, offsets[0], offsets[1]);
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    action.sched_choice[s] =
        argmax_range(q, offsets[1 + s], offsets[2 + s]);
  }
  return action;
}

PolicyDecision DqnAgent::act_greedy(std::span<const double> state) const {
  const auto offsets = head_offsets();
  const Vector q = q_values(online_, state);
  PolicyDecision decision;
  decision.action = greedy_from(q, offsets);
  const auto heads = boltzmann_heads(q, offsets);
  const auto chosen = head_choices(decision.action);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    decision.head_probs[h] = heads[h][chosen[h]];
    decision.log_prob += detmath::log(std::max(heads[h][chosen[h]], 1e-12));
  }
  return decision;
}

PolicyDecision DqnAgent::act(
    std::span<const double> state, common::Rng& rng,
    const std::array<double, kNumHeads>& temperatures) const {
  const auto offsets = head_offsets();
  const Vector q = q_values(online_, state);

  PolicyDecision decision;
  std::array<std::size_t, kNumHeads> chosen{};
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    EXPLORA_EXPECTS(temperatures[h] > 0.0);
    Vector probs(q.begin() + static_cast<std::ptrdiff_t>(offsets[h]),
                 q.begin() + static_cast<std::ptrdiff_t>(offsets[h + 1]));
    for (double& v : probs) v /= temperatures[h];
    softmax(probs);
    EXPLORA_AUDIT_MSG(contracts::is_probability_simplex(probs),
                      "DQN Boltzmann head {} is not a probability distribution",
                      h);
    const double u = rng.uniform();
    double acc = 0.0;
    chosen[h] = probs.size() - 1;
    for (std::size_t i = 0; i < probs.size(); ++i) {
      acc += probs[i];
      if (u < acc) {
        chosen[h] = i;
        break;
      }
    }
    decision.head_probs[h] = probs[chosen[h]];
    decision.log_prob += detmath::log(std::max(probs[chosen[h]], 1e-12));
  }
  decision.action.prb_choice = chosen[0];
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    decision.action.sched_choice[s] = chosen[1 + s];
  }
  return decision;
}

std::vector<Vector> DqnAgent::head_distributions(
    std::span<const double> state) const {
  return boltzmann_heads(q_values(online_, state), head_offsets());
}

std::vector<Vector> DqnAgent::boltzmann_heads(
    const Vector& q, const std::array<std::size_t, kNumHeads + 1>& offsets) {
  std::vector<Vector> heads;
  heads.reserve(kNumHeads);
  for (std::size_t h = 0; h < kNumHeads; ++h) {
    Vector head(q.begin() + static_cast<std::ptrdiff_t>(offsets[h]),
                q.begin() + static_cast<std::ptrdiff_t>(offsets[h + 1]));
    softmax(head);  // Boltzmann view of the Q-values
    heads.push_back(std::move(head));
  }
  return heads;
}

double DqnAgent::epsilon() const noexcept {
  const double progress =
      std::min(1.0, static_cast<double>(updates_) /
                        static_cast<double>(config_.epsilon_decay_updates));
  return config_.epsilon_start +
         (config_.epsilon_end - config_.epsilon_start) * progress;
}

AgentAction DqnAgent::act_epsilon_greedy(std::span<const double> state,
                                         common::Rng& rng) const {
  const double eps = epsilon();
  AgentAction action = act_greedy(state).action;
  // Per-head exploration: each head independently randomizes with
  // probability epsilon (standard for branching Q architectures).
  if (rng.bernoulli(eps)) {
    action.prb_choice = rng.index(netsim::prb_catalog().size());
  }
  for (std::size_t s = 0; s < netsim::kNumSlices; ++s) {
    if (rng.bernoulli(eps)) {
      action.sched_choice[s] = rng.index(netsim::kNumSchedulerPolicies);
    }
  }
  return action;
}

double DqnAgent::update(const ReplayBuffer& buffer, common::Rng& rng) {
  EXPLORA_EXPECTS(buffer.size() > 0);
  const auto offsets = head_offsets();

  online_.zero_grad();
  double batch_loss = 0.0;
  const double batch_n = static_cast<double>(config_.batch_size);
  for (std::size_t b = 0; b < config_.batch_size; ++b) {
    const DqnExperience& exp = buffer.sample(rng);

    // Per-head TD target from the target network.
    const Vector next_q = q_values(target_, exp.next_state);
    std::array<double, kNumHeads> targets{};
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      double max_next = next_q[offsets[h]];
      for (std::size_t i = offsets[h] + 1; i < offsets[h + 1]; ++i) {
        max_next = std::max(max_next, next_q[i]);
      }
      targets[h] = exp.reward +
                   (exp.terminal ? 0.0 : config_.gamma * max_next);
    }

    const Vector& q = online_.forward(exp.state);
    const std::array<std::size_t, kNumHeads> chosen{
        exp.action.prb_choice, exp.action.sched_choice[0],
        exp.action.sched_choice[1], exp.action.sched_choice[2]};
    Vector grad(q.size(), 0.0);
    for (std::size_t h = 0; h < kNumHeads; ++h) {
      const std::size_t index = offsets[h] + chosen[h];
      const double error = q[index] - targets[h];
      batch_loss += error * error / static_cast<double>(kNumHeads);
      grad[index] = 2.0 * error /
                    (static_cast<double>(kNumHeads) * batch_n);
    }
    online_.backward(grad);
  }
  optimizer_.step();
  ++updates_;
  if (updates_ % config_.target_sync_interval == 0) sync_target();
  return batch_loss / batch_n;
}

void DqnAgent::serialize(common::Writer& writer) const {
  writer.varint(config_.state_dim);
  writer.varint(config_.hidden_dim);
  online_.serialize(writer);
}

void DqnAgent::deserialize(common::Reader& reader) {
  if (reader.varint() != config_.state_dim ||
      reader.varint() != config_.hidden_dim) {
    throw common::SerializeError("DQN shape mismatch");
  }
  online_.deserialize(reader);
  sync_target();
}

}  // namespace explora::ml
