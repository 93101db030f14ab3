#include "explora/explain_service.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "xai/agent_model.hpp"

namespace explora {

namespace {

using xai::serving::ShedReason;
using xai::serving::Tick;
using xai::serving::Tier;

constexpr std::array<std::int64_t, 11> kLatencyBounds{1,  2,   4,   8,   16, 32,
                                                      64, 128, 256, 512, 1024};

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double l, double r) {
                      return std::bit_cast<std::uint64_t>(l) ==
                             std::bit_cast<std::uint64_t>(r);
                    });
}

}  // namespace

ExplainService::ExplainService(const ml::PolicyAgent& agent,
                               std::vector<ml::Vector> background,
                               const xai::DecisionTreeClassifier* surrogate,
                               Config config,
                               xai::serving::DegradationLadder* shared_ladder)
    : agent_(agent),
      background_(std::move(background)),
      surrogate_(surrogate),
      config_(config),
      queue_(config.queue_capacity,
             background_.empty() ? 0 : background_.front().size()),
      fault_rng_(common::Rng(config.seed).fork("serving.eval_faults")) {
  EXPLORA_EXPECTS_MSG(!background_.empty(),
                      "ExplainService needs background rows for SHAP");
  if (background_.size() > config_.max_background) {
    background_.resize(config_.max_background);
  }
  if (shared_ladder != nullptr) {
    ladder_ = shared_ladder;
  } else {
    owned_ladder_ =
        std::make_unique<xai::serving::DegradationLadder>(config_.ladder);
    ladder_ = owned_ladder_.get();
  }
  breaker_ = xai::serving::CircuitBreaker(config_.breaker);
  if (config_.in_flight_budget == 0) {
    config_.in_flight_budget = queue_.capacity() + config_.workers;
  }
  workers_.resize(std::max<std::size_t>(config_.workers, 1));
  for (auto& slot : workers_) {
    slot.request.x.resize(queue_.feature_dim());
    slot.attribution.reserve(queue_.feature_dim());
  }
  cache_.resize(ml::kNumHeads);

  telemetry::Scope scope("explora.serving");
  tm_submitted_ = &scope.counter("submitted");
  tm_accepted_ = &scope.counter("accepted");
  for (std::size_t t = 0; t < xai::serving::kNumTiers; ++t) {
    const auto tier = static_cast<Tier>(t);
    tm_served_[t] = &scope.counter(std::string("served.") +
                                   std::string(to_string(tier)));
    tm_latency_[t] = &scope.histogram(
        std::string("latency_ticks.") + std::string(to_string(tier)),
        kLatencyBounds);
  }
  for (std::size_t r = 0; r < shed_by_reason_.size(); ++r) {
    tm_shed_[r] = &scope.counter(
        std::string("shed.") +
        std::string(to_string(static_cast<ShedReason>(r))));
  }
  tm_demotions_ = &scope.counter("demoted_requests");
  tm_eval_faults_ = &scope.counter("eval_faults");
  tm_breaker_state_ = &scope.gauge("breaker_state");
  tm_active_tier_ = &scope.gauge("active_tier");
  tm_queue_depth_ = &scope.gauge("queue_depth");
}

std::size_t ExplainService::busy_workers() const {
  std::size_t busy = 0;
  for (const auto& slot : workers_) {
    if (slot.active) ++busy;
  }
  return busy;
}

ExplainService::SubmitResult ExplainService::submit(
    std::span<const double> x, std::uint32_t output_index,
    const ml::AgentAction& chosen, Tick now, Tick deadline) {
  EXPLORA_EXPECTS(x.size() == queue_.feature_dim());
  EXPLORA_EXPECTS(output_index < ml::kNumHeads);
  ++submitted_;
  tm_submitted_->add(1);
  SubmitResult result;
  result.id = next_id_++;
  if (deadline == 0) deadline = now + config_.default_deadline;

  if (queue_.depth() + busy_workers() >= config_.in_flight_budget) {
    result.shed_reason = ShedReason::kInFlightBudget;
    shed_by_reason_[static_cast<std::size_t>(result.shed_reason)] += 1;
    tm_shed_[static_cast<std::size_t>(result.shed_reason)]->add(1);
    return result;
  }
  const std::array<std::uint32_t, 4> context{
      static_cast<std::uint32_t>(chosen.prb_choice),
      static_cast<std::uint32_t>(chosen.sched_choice[0]),
      static_cast<std::uint32_t>(chosen.sched_choice[1]),
      static_cast<std::uint32_t>(chosen.sched_choice[2])};
  if (!queue_.try_push(result.id, output_index, context, now, deadline, x)) {
    result.shed_reason = ShedReason::kQueueFull;
    shed_by_reason_[static_cast<std::size_t>(result.shed_reason)] += 1;
    tm_shed_[static_cast<std::size_t>(result.shed_reason)]->add(1);
    return result;
  }
  result.accepted = true;
  ++accepted_;
  tm_accepted_->add(1);
  return result;
}

void ExplainService::on_tick(Tick now) {
  breaker_.on_tick(now);
  ladder_->set_model_available(breaker_.allow_eval(), now);
  complete_finished(now);
  ladder_->observe_pressure(
      static_cast<std::int64_t>(queue_.depth() + busy_workers()), now);
  dispatch_queued(now);
  tm_breaker_state_->set(static_cast<std::int64_t>(breaker_.state()));
  tm_active_tier_->set(static_cast<std::int64_t>(ladder_->active_tier()));
  tm_queue_depth_->set(static_cast<std::int64_t>(queue_.depth()));
}

void ExplainService::complete_finished(Tick now) {
  finished_scratch_.clear();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].active && workers_[i].finish <= now) {
      finished_scratch_.push_back(i);
    }
  }
  // Deliver in (finish tick, id) order so the result stream never depends
  // on worker-slot assignment.
  std::sort(finished_scratch_.begin(), finished_scratch_.end(),
            [this](std::size_t a, std::size_t b) {
              const InFlight& wa = workers_[a];
              const InFlight& wb = workers_[b];
              if (wa.finish != wb.finish) return wa.finish < wb.finish;
              return wa.request.id < wb.request.id;
            });
  for (const std::size_t i : finished_scratch_) {
    InFlight& slot = workers_[i];
    ExplanationResult result;
    result.id = slot.request.id;
    result.output_index = slot.request.output_index;
    result.tier = slot.tier;
    result.submitted = slot.request.submitted;
    result.completed = slot.finish;
    result.latency = slot.finish - slot.request.submitted;
    result.degraded = slot.degraded;
    result.from_cache = slot.from_cache;
    result.attribution = slot.attribution;

    const auto t = static_cast<std::size_t>(slot.tier);
    served_by_tier_[t] += 1;
    tm_served_[t]->add(1);
    tm_latency_[t]->observe(result.latency);
    if (slot.degraded) {
      ++demoted_requests_;
      tm_demotions_->add(1);
    }
    if (!slot.from_cache) {
      CacheEntry& entry = cache_[slot.request.output_index];
      entry.valid = true;
      entry.at = slot.finish;
      entry.attribution = slot.attribution;
    }
    drained_.push_back(std::move(result));
    slot.active = false;
  }
}

void ExplainService::dispatch_queued(Tick now) {
  for (auto& slot : workers_) {
    // A shed request frees the slot again, so keep popping until this
    // slot actually holds work (or the queue runs dry).
    while (!slot.active) {
      if (!queue_.try_pop(slot.request)) return;
      const Tick budget = slot.request.deadline - now;
      const Tier floor = ladder_->active_tier();
      const auto fit = config_.costs.cheapest_tier_fitting(budget, floor);
      if (!fit.has_value()) {
        shed(slot.request, ShedReason::kDeadlineInfeasible, now);
        continue;
      }
      slot.tier = *fit;
      slot.degraded = slot.tier != Tier::kExact;
      slot.from_cache = false;
      execute(slot, now);
    }
  }
}

void ExplainService::execute(InFlight& slot, Tick now) {
  Tick cost = config_.costs.cost(slot.tier);
  if (slot.tier == Tier::kExact || slot.tier == Tier::kSampled) {
    // Deterministic fault injection on the model-eval path: the draw
    // sequence is part of the decision stream (one slow + one failure
    // draw per model-eval dispatch, in dispatch order).
    const bool slow = fault_rng_.bernoulli(config_.eval_slow_probability);
    const bool fail = fault_rng_.bernoulli(config_.eval_failure_probability);
    if (slow) cost *= config_.eval_slow_factor;
    const bool timed_out = config_.breaker.eval_timeout_ticks > 0 &&
                           cost > config_.breaker.eval_timeout_ticks;
    if (fail || timed_out) {
      ++eval_faults_;
      tm_eval_faults_->add(1);
      breaker_.record_failure(now);
      // Fall back without touching the model: surrogate if distilled,
      // else last-good cache, else shed.
      if (surrogate_ != nullptr) {
        slot.tier = Tier::kSurrogate;
        slot.degraded = true;
      } else if (cache_[slot.request.output_index].valid) {
        slot.tier = Tier::kCached;
        slot.degraded = true;
      } else {
        shed(slot.request, ShedReason::kNoCachedResult, now);
        slot.active = false;
        return;
      }
      cost = config_.costs.cost(slot.tier);
    } else {
      breaker_.record_success(now);
    }
  }

  switch (slot.tier) {
    case Tier::kExact:
    case Tier::kSampled:
      slot.attribution = shap_attribution(slot.request, slot.tier);
      slot.from_cache = false;
      break;
    case Tier::kSurrogate: {
      if (surrogate_ == nullptr) {
        if (!cache_[slot.request.output_index].valid) {
          shed(slot.request, ShedReason::kNoCachedResult, now);
          slot.active = false;
          return;
        }
        slot.tier = Tier::kCached;
        slot.degraded = true;
        slot.attribution = cache_[slot.request.output_index].attribution;
        slot.from_cache = true;
        cost = config_.costs.cost(Tier::kCached);
        break;
      }
      slot.attribution = surrogate_->path_attribution(slot.request.x);
      slot.from_cache = false;
      break;
    }
    case Tier::kCached: {
      const CacheEntry& entry = cache_[slot.request.output_index];
      if (!entry.valid) {
        shed(slot.request, ShedReason::kNoCachedResult, now);
        slot.active = false;
        return;
      }
      slot.attribution = entry.attribution;
      slot.from_cache = true;
      break;
    }
  }
  slot.finish = now + cost;
  slot.active = true;
}

const ExplainService::ShapTable* ExplainService::find_shap_table(
    const xai::serving::Request& request, Tier tier) const {
  const auto hit = std::find_if(
      shap_tables_.begin(), shap_tables_.end(), [&](const ShapTable& t) {
        return t.valid && t.tier == tier && t.context == request.context &&
               same_bits(t.x, request.x);
      });
  return hit == shap_tables_.end() ? nullptr : &*hit;
}

std::vector<double> ExplainService::shap_attribution(
    const xai::serving::Request& request, Tier tier) {
  if (const ShapTable* hit = find_shap_table(request, tier)) {
    return hit->phi[request.output_index];
  }

  ml::AgentAction chosen;
  chosen.prb_choice = request.context[0];
  chosen.sched_choice = {request.context[1], request.context[2],
                         request.context[3]};
  xai::ShapExplainer::Config shap_config;
  shap_config.mode = tier == Tier::kExact
                         ? xai::ShapExplainer::Mode::kExact
                         : xai::ShapExplainer::Mode::kSampling;
  shap_config.permutations = config_.sampled_permutations;
  shap_config.max_background = config_.max_background;
  shap_config.seed = config_.seed;
  shap_config.pool = config_.pool;
  xai::ShapExplainer explainer(xai::head_probability_model(agent_, chosen),
                               background_, shap_config);
  // Computed before the FIFO victim is overwritten: the victim may be the
  // exact entry a sampled table reads from.
  ml::Matrix values;
  std::vector<ml::Vector> phi;
  if (tier == Tier::kExact) {
    values = explainer.coalition_table(request.x);
    phi = explainer.explain_all_outputs(request.x, values);
  } else if (const ShapTable* exact = find_shap_table(request, Tier::kExact)) {
    phi = explainer.explain_all_outputs(request.x, exact->values);
  } else {
    phi = explainer.explain_all_outputs(request.x);
  }
  EXPLORA_EXPECTS(request.output_index < phi.size());
  ShapTable& table = shap_tables_[next_shap_table_];
  next_shap_table_ = (next_shap_table_ + 1) % kShapTableCapacity;
  table.phi = std::move(phi);
  table.values = std::move(values);
  table.x = request.x;
  table.context = request.context;
  table.tier = tier;
  table.valid = true;
  return table.phi[request.output_index];
}

void ExplainService::shed(const xai::serving::Request& request,
                          ShedReason reason, Tick now) {
  shed_by_reason_[static_cast<std::size_t>(reason)] += 1;
  tm_shed_[static_cast<std::size_t>(reason)]->add(1);
  ExplanationResult notice;
  notice.id = request.id;
  notice.output_index = request.output_index;
  notice.shed_reason = reason;
  notice.submitted = request.submitted;
  notice.completed = now;
  drained_.push_back(std::move(notice));
}

std::vector<ExplanationResult> ExplainService::drain() {
  std::vector<ExplanationResult> out;
  out.swap(drained_);
  return out;
}

ExplainService::Stats ExplainService::stats() const {
  Stats stats;
  stats.submitted = submitted_;
  stats.accepted = accepted_;
  stats.served_by_tier = served_by_tier_;
  stats.shed_by_reason = shed_by_reason_;
  stats.demoted_requests = demoted_requests_;
  stats.eval_faults = eval_faults_;
  stats.breaker_trips = breaker_.trips();
  stats.queue_high_water = queue_.high_water();
  stats.queue_capacity = queue_.capacity();
  return stats;
}

}  // namespace explora
