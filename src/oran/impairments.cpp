#include "oran/impairments.hpp"

#include "common/contracts.hpp"

namespace explora::oran {

namespace {

[[nodiscard]] bool valid_probability(double p) noexcept {
  return p >= 0.0 && p <= 1.0;
}

/// Metric-name label per MessageType, in enum order.
constexpr std::array<std::string_view, kNumMessageTypes> kTypeLabels = {
    "kpm_indication", "ran_control", "ric_control_ack"};

}  // namespace

LinkImpairments::LinkImpairments(std::uint64_t seed)
    : rng_(common::Rng(seed).fork("impairments")) {
  telemetry::Scope scope("oran.impairments");
  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    const std::string label(kTypeLabels[t]);
    tm_[t] = {&scope.counter("dropped." + label),
              &scope.counter("delayed." + label),
              &scope.counter("duplicated." + label),
              &scope.counter("reordered." + label)};
  }
}

void LinkImpairments::set_policy(MessageType type, std::string target,
                                 Policy policy) {
  EXPLORA_EXPECTS(valid_probability(policy.drop));
  EXPLORA_EXPECTS(valid_probability(policy.delay));
  EXPLORA_EXPECTS(valid_probability(policy.duplicate));
  EXPLORA_EXPECTS(valid_probability(policy.reorder));
  EXPLORA_EXPECTS(policy.delay_rounds >= 1);
  policies_[PolicyKey{type, std::move(target)}] = policy;
}

const LinkImpairments::Policy* LinkImpairments::policy_for(
    MessageType type, std::string_view target) const {
  auto it = policies_.find(PolicyKey{type, std::string(target)});
  if (it != policies_.end()) return &it->second;
  it = policies_.find(PolicyKey{type, "*"});
  if (it != policies_.end()) return &it->second;
  return nullptr;
}

LinkImpairments::Fate LinkImpairments::decide(MessageType type,
                                              std::string_view target) {
  const Policy* policy = policy_for(type, target);
  if (policy == nullptr || policy->perfect()) return Fate::kDeliver;
  const FateCounters& counters = tm_[static_cast<std::size_t>(type)];
  // All four faults draw unconditionally so the stream consumes exactly
  // four variates per impaired delivery regardless of the outcome.
  const bool drop = rng_.bernoulli(policy->drop);
  const bool delay = rng_.bernoulli(policy->delay);
  const bool duplicate = rng_.bernoulli(policy->duplicate);
  const bool reorder = rng_.bernoulli(policy->reorder);
  if (drop) {
    counters.dropped->add(1);
    return Fate::kDrop;
  }
  if (delay) {
    counters.delayed->add(1);
    return Fate::kDelay;
  }
  if (duplicate) {
    counters.duplicated->add(1);
    return Fate::kDuplicate;
  }
  if (reorder) {
    counters.reordered->add(1);
    return Fate::kReorder;
  }
  return Fate::kDeliver;
}

std::uint32_t LinkImpairments::delay_rounds(MessageType type,
                                            std::string_view target) const {
  const Policy* policy = policy_for(type, target);
  return policy == nullptr ? 1 : policy->delay_rounds;
}

}  // namespace explora::oran
