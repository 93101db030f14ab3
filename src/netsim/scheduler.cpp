#include "netsim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/contracts.hpp"

namespace explora::netsim {

namespace {

/// PRBs that drain `ue`'s buffer at this TTI's bytes/PRB (at least 2
/// bytes/PRB, the CQI-1 floor).
std::uint64_t prb_demand(const Ue& ue) noexcept {
  const std::uint64_t per_prb = ue.channel().bytes_per_prb();
  EXPLORA_ASSERT(per_prb > 0);
  return (ue.buffer_bytes() + per_prb - 1) / per_prb;
}

// Upper bound kTotalPrbs: a slice can at most be granted the whole carrier.
constexpr std::int64_t kPrbBounds[] = {0, 5, 10, 20, 30, 40, kTotalPrbs};

}  // namespace

SchedulerMetrics SchedulerMetrics::bind() {
  telemetry::Scope scope("netsim.scheduler");
  SchedulerMetrics metrics;
  metrics.tti_runs = &scope.counter("tti_runs");
  metrics.prb_granted = &scope.counter("prb_granted");
  metrics.prb_unused = &scope.counter("prb_unused");
  metrics.prb_per_tti = &scope.histogram("prb_per_tti", kPrbBounds);
  return metrics;
}

Scheduler::Scheduler(const SchedulerMetrics& metrics) : metrics_(metrics) {
  EXPLORA_EXPECTS(metrics.tti_runs != nullptr &&
                  metrics.prb_granted != nullptr &&
                  metrics.prb_unused != nullptr &&
                  metrics.prb_per_tti != nullptr);
}

Scheduler::~Scheduler() { flush_telemetry(); }

void Scheduler::reuse_scratch(Scheduler& replaced) noexcept {
  active_.swap(replaced.active_);
  grants_.swap(replaced.grants_);
  order_.swap(replaced.order_);
}

void Scheduler::record_grants(std::uint32_t granted,
                              std::uint32_t budget) noexcept {
  // Plain-integer accumulation on the TTI hot path; flush_telemetry()
  // folds it into the shared atomics once per report window.
  if constexpr (!telemetry::kCompiledIn) {
    (void)granted;
    (void)budget;
    return;
  }
  ++pending_.runs;
  pending_.granted += granted;
  pending_.unused += budget - granted;
  ++pending_.grant_tally[granted];
}

void Scheduler::flush_telemetry() noexcept {
  if constexpr (!telemetry::kCompiledIn) return;
  if (pending_.runs == 0) return;
  metrics_.tti_runs->add(pending_.runs);
  metrics_.prb_granted->add(pending_.granted);
  metrics_.prb_unused->add(pending_.unused);
  // Derive the histogram fold from the grant tally: per-TTI values are
  // bounded by the carrier, so the tally is exhaustive and sum/min/max
  // reconstruct exactly what per-value observe() calls would have seen.
  std::array<std::uint64_t, std::size(kPrbBounds) + 1> buckets{};
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::size_t bucket = 0;
  for (std::int64_t value = 0; value <= kTotalPrbs; ++value) {
    const std::uint64_t hits =
        pending_.grant_tally[static_cast<std::size_t>(value)];
    while (bucket < std::size(kPrbBounds) && value > kPrbBounds[bucket]) {
      ++bucket;
    }
    if (hits == 0) continue;
    buckets[bucket] += hits;
    sum += value * static_cast<std::int64_t>(hits);
    min = std::min(min, value);
    max = std::max(max, value);
  }
  metrics_.prb_per_tti->observe_batch(buckets, pending_.runs, sum, min, max);
  pending_ = PendingGrants{};
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerPolicy policy,
                                          double pf_alpha,
                                          const SchedulerMetrics& metrics) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>(metrics);
    case SchedulerPolicy::kWaterfilling:
      return std::make_unique<WaterfillingScheduler>(metrics);
    case SchedulerPolicy::kProportionalFair:
      return std::make_unique<ProportionalFairScheduler>(pf_alpha, metrics);
  }
  EXPLORA_ASSERT(false);
  return nullptr;
}

void Scheduler::collect_backlogged(std::span<Ue*> ues) {
  active_.clear();
  grants_.clear();
  for (Ue* ue : ues) {
    EXPLORA_EXPECTS(ue != nullptr);
    if (!ue->has_data()) continue;
    // The scratch retains capacity across TTIs; it grows only when the
    // attached-UE count grows (attach/detach, not the TTI loop).
    active_.push_back(ue);
    grants_.push_back(Grant{.demand = prb_demand(*ue)});
  }
}

template <typename Before>
void Scheduler::rank_active(Before before) {
  order_.clear();
  for (std::uint32_t i = 0; i < active_.size(); ++i) {
    order_.push_back(i);
  }
  std::sort(order_.begin(), order_.end(), before);
}

std::uint32_t Scheduler::grant_in_order(std::uint32_t budget) noexcept {
  std::uint32_t remaining = budget;
  for (const std::uint32_t i : order_) {
    if (remaining == 0) break;
    Grant& grant = grants_[i];
    grant.prbs = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, grant.demand));
    remaining -= grant.prbs;
  }
  return budget - remaining;
}

void Scheduler::serve_grants() {
  // serve(k * b) sends min(k * b, buffer) and pops the same packets as k
  // single-PRB serves, and a serve touches only its own UE, so one call
  // per UE, in any order, serves exactly what granting PRB by PRB would.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    Grant& grant = grants_[i];
    if (grant.prbs == 0) continue;
    grant.sent = active_[i]->serve(std::uint64_t{grant.prbs} *
                                   active_[i]->channel().bytes_per_prb());
  }
}

void RoundRobinScheduler::schedule_tti(std::span<Ue*> ues,
                                       std::uint32_t prb_budget) {
  collect_backlogged(ues);
  if (active_.empty() || prb_budget == 0) {
    record_grants(0, prb_budget);
    return;
  }
  // Rotate the starting user so the head position does not systematically
  // favour low UE ids when the budget is not a multiple of the user count.
  const std::size_t users = active_.size();
  next_ %= users;
  std::uint32_t remaining = prb_budget;
  while (remaining > 0) {
    std::uint32_t open = 0;  // UEs with data left after their grant so far
    std::uint64_t min_left = std::numeric_limits<std::uint64_t>::max();
    for (const Grant& grant : grants_) {
      if (grant.prbs == grant.demand) continue;
      ++open;
      min_left = std::min(min_left, grant.demand - grant.prbs);
    }
    if (open == 0) break;  // every queue drains this TTI
    if (remaining < open) {
      // The last, partial round: one PRB each in cyclic order from next_.
      for (std::size_t step = 0; remaining > 0; ++step) {
        Grant& grant = grants_[(next_ + step) % users];
        if (grant.prbs == grant.demand) continue;
        ++grant.prbs;
        --remaining;
      }
      break;
    }
    // Whole rounds give every open UE one PRB wherever the round starts;
    // take as many as the budget allows before some UE drains.
    const auto rounds = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining / open, min_left));
    for (Grant& grant : grants_) {
      if (grant.prbs != grant.demand) grant.prbs += rounds;
    }
    remaining -= rounds * open;
  }
  serve_grants();
  // A slice scheduler must never grant more PRBs than its slice owns,
  // or it would eat into another slice's share.
  EXPLORA_ENSURES_MSG(remaining <= prb_budget,
                      "RR served {} PRBs over a budget of {}",
                      prb_budget - remaining, prb_budget);
  record_grants(prb_budget - remaining, prb_budget);
  next_ = (next_ + 1) % users;
}

void WaterfillingScheduler::schedule_tti(std::span<Ue*> ues,
                                         std::uint32_t prb_budget) {
  collect_backlogged(ues);
  if (active_.empty() || prb_budget == 0) {
    record_grants(0, prb_budget);
    return;
  }
  // Strongest channel first; ties broken by UE id for determinism.
  rank_active([this](std::uint32_t a, std::uint32_t b) {
    const UeChannel& ca = active_[a]->channel();
    const UeChannel& cb = active_[b]->channel();
    if (ca.sinr_db() != cb.sinr_db()) return ca.sinr_db() > cb.sinr_db();
    return active_[a]->id() < active_[b]->id();
  });
  const std::uint32_t granted = grant_in_order(prb_budget);
  serve_grants();
  EXPLORA_ENSURES_MSG(granted <= prb_budget,
                      "WF served {} PRBs over a budget of {}", granted,
                      prb_budget);
  record_grants(granted, prb_budget);
}

ProportionalFairScheduler::ProportionalFairScheduler(
    double alpha, const SchedulerMetrics& metrics)
    : Scheduler(metrics), alpha_(alpha) {
  EXPLORA_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

void ProportionalFairScheduler::schedule_tti(std::span<Ue*> ues,
                                             std::uint32_t prb_budget) {
  collect_backlogged(ues);
  std::uint32_t granted = 0;
  if (!active_.empty() && prb_budget > 0) {
    // Best instantaneous-rate / average ratio first; the lower index wins
    // ties, as the first maximum of a linear scan would.
    const auto metric = [this](std::uint32_t i) {
      return active_[i]->channel().bits_per_prb() /
             std::max(active_[i]->pf_average(), 1e-3);
    };
    rank_active([&metric](std::uint32_t a, std::uint32_t b) {
      const double ma = metric(a);
      const double mb = metric(b);
      if (ma != mb) return ma > mb;
      return a < b;
    });
    granted = grant_in_order(prb_budget);
    serve_grants();
    EXPLORA_ENSURES_MSG(granted <= prb_budget,
                        "PF served {} PRBs over a budget of {}", granted,
                        prb_budget);
  }
  record_grants(granted, prb_budget);
  // EWMA update for every tracked user, including the unserved ones (their
  // average decays, raising future priority) — standard PF bookkeeping.
  // Served bits are integers far below 2^53, so one product equals a
  // PRB-by-PRB sum exactly.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    double& avg = active_[i]->pf_average();
    avg = (1.0 - alpha_) * avg +
          alpha_ * (static_cast<double>(grants_[i].sent) * 8.0);
  }
}

}  // namespace explora::netsim
