#include "xai/serving.hpp"

#include <algorithm>

namespace explora::xai::serving {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::string_view to_string(Tier tier) noexcept {
  switch (tier) {
    case Tier::kExact:
      return "exact";
    case Tier::kSampled:
      return "sampled";
    case Tier::kSurrogate:
      return "surrogate";
    case Tier::kCached:
      return "cached";
  }
  return "unknown";
}

std::string_view to_string(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kInFlightBudget:
      return "in_flight_budget";
    case ShedReason::kDeadlineInfeasible:
      return "deadline_infeasible";
    case ShedReason::kNoCachedResult:
      return "no_cached_result";
  }
  return "unknown";
}

std::string_view to_string(DegradationLadder::Trigger trigger) noexcept {
  switch (trigger) {
    case DegradationLadder::Trigger::kLoad:
      return "load";
    case DegradationLadder::Trigger::kStaleGap:
      return "stale_gap";
    case DegradationLadder::Trigger::kRecovery:
      return "recovery";
    case DegradationLadder::Trigger::kBreaker:
      return "breaker";
  }
  return "unknown";
}

std::string_view to_string(CircuitBreaker::State state) noexcept {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// BoundedRequestQueue
// ---------------------------------------------------------------------------

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity,
                                         std::size_t feature_dim)
    : feature_dim_(feature_dim),
      slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))) {
  for (Request& slot : slots_) slot.x.resize(feature_dim_);
}

bool BoundedRequestQueue::try_push(std::uint64_t id,
                                   std::uint32_t output_index,
                                   std::span<const std::uint32_t> context,
                                   Tick submitted, Tick deadline,
                                   std::span<const double> x) noexcept {
  EXPLORA_EXPECTS(x.size() == feature_dim_);
  if (depth_ == slots_.size()) return false;  // ring full
  Request& req = slots_[(head_ + depth_) & (slots_.size() - 1)];
  req.id = id;
  req.output_index = output_index;
  req.submitted = submitted;
  req.deadline = deadline;
  req.context.fill(0);
  std::copy(context.begin(),
            context.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(context.size(), req.context.size())),
            req.context.begin());
  std::copy(x.begin(), x.end(), req.x.begin());
  ++depth_;
  high_water_ = std::max(high_water_, depth_);
  return true;
}

bool BoundedRequestQueue::try_pop(Request& out) noexcept {
  EXPLORA_EXPECTS(out.x.size() == feature_dim_);
  if (depth_ == 0) return false;  // ring empty
  const Request& req = slots_[head_];
  out.id = req.id;
  out.output_index = req.output_index;
  out.submitted = req.submitted;
  out.deadline = req.deadline;
  out.context = req.context;
  std::copy(req.x.begin(), req.x.end(), out.x.begin());
  head_ = (head_ + 1) & (slots_.size() - 1);
  --depth_;
  return true;
}

// ---------------------------------------------------------------------------
// DegradationLadder
// ---------------------------------------------------------------------------

DegradationLadder::DegradationLadder() : DegradationLadder(LadderConfig{}) {}

DegradationLadder::DegradationLadder(LadderConfig config)
    : config_(config) {
  EXPLORA_EXPECTS(config_.demote_streak >= 1);
  EXPLORA_EXPECTS(config_.promote_streak >= 1);
  EXPLORA_EXPECTS(config_.ewma_shift >= 0);
  EXPLORA_EXPECTS(config_.recovery_clean_reports >= 1);
}

Tier DegradationLadder::active_tier() const noexcept {
  auto tier = static_cast<std::uint8_t>(load_tier_);
  if (!model_available_) {
    tier = std::max(tier, static_cast<std::uint8_t>(Tier::kSurrogate));
  }
  if (stale_) {
    tier = std::max(tier, static_cast<std::uint8_t>(Tier::kCached));
  }
  return static_cast<Tier>(tier);
}

void DegradationLadder::observe_pressure(std::int64_t pressure, Tick now) {
  EXPLORA_EXPECTS(pressure >= 0);
  const std::int64_t sample = pressure * kPressureScale;
  ewma_ += (sample - ewma_) >> config_.ewma_shift;
  step_load_tier(now);
}

void DegradationLadder::step_load_tier(Tick now) {
  const auto t = static_cast<std::size_t>(load_tier_);
  const bool can_demote = load_tier_ != Tier::kCached;
  const bool can_promote = load_tier_ != Tier::kExact;

  if (can_demote && ewma_ >= config_.demote_above[t]) {
    ++demote_run_;
    promote_run_ = 0;
  } else if (can_promote && ewma_ <= config_.promote_below[t]) {
    ++promote_run_;
    demote_run_ = 0;
  } else {
    demote_run_ = 0;
    promote_run_ = 0;
  }

  if (can_demote && demote_run_ >= config_.demote_streak) {
    const Tier before = active_tier();
    load_tier_ = static_cast<Tier>(t + 1);
    demote_run_ = 0;
    promote_run_ = 0;
    ++demotions_;
    emit(before, active_tier(), Trigger::kLoad, now);
  } else if (can_promote && promote_run_ >= config_.promote_streak) {
    const Tier before = active_tier();
    load_tier_ = static_cast<Tier>(t - 1);
    demote_run_ = 0;
    promote_run_ = 0;
    ++promotions_;
    emit(before, active_tier(), Trigger::kLoad, now);
  }
}

void DegradationLadder::record_gap(Tick now) {
  clean_streak_ = 0;
  if (!stale_) {
    const Tier before = active_tier();
    stale_ = true;
    emit(before, active_tier(), Trigger::kStaleGap, now);
  }
}

bool DegradationLadder::record_clean(Tick now) {
  if (!stale_) return false;
  ++clean_streak_;
  if (clean_streak_ < config_.recovery_clean_reports) return false;
  const Tier before = active_tier();
  stale_ = false;
  clean_streak_ = 0;
  emit(before, active_tier(), Trigger::kRecovery, now);
  return true;
}

void DegradationLadder::set_model_available(bool available, Tick now) {
  if (available == model_available_) return;
  const Tier before = active_tier();
  model_available_ = available;
  emit(before, active_tier(), Trigger::kBreaker, now);
}

void DegradationLadder::emit(Tier from, Tier to, Trigger trigger, Tick now) {
  if (from == to || !on_transition_) return;
  Transition transition;
  transition.at = now;
  transition.from = from;
  transition.to = to;
  transition.trigger = trigger;
  on_transition_(transition);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

void CircuitBreaker::on_tick(Tick now) {
  if (state_ == State::kOpen && now >= open_until_) {
    state_ = State::kHalfOpen;
    half_open_successes_ = 0;
  }
}

void CircuitBreaker::record_success(Tick now) {
  (void)now;
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen) {
    ++half_open_successes_;
    if (half_open_successes_ >= config_.successes_to_close) {
      state_ = State::kClosed;
      half_open_successes_ = 0;
    }
  }
}

void CircuitBreaker::record_failure(Tick now) {
  ++consecutive_failures_;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed &&
       consecutive_failures_ >= config_.failure_threshold)) {
    state_ = State::kOpen;
    open_until_ = now + config_.open_ticks;
    half_open_successes_ = 0;
    ++trips_;
  }
}

}  // namespace explora::xai::serving
