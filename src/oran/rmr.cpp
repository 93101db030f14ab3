#include "oran/rmr.hpp"

#include <algorithm>
#include <limits>

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace explora::oran {

RmrRouter::RmrRouter() {
  telemetry::Scope scope("oran.rmr");
  tm_rounds_ = &scope.counter("rounds");
  tm_delivered_ = &scope.counter("delivered");
  tm_dropped_unroutable_ = &scope.counter("dropped_unroutable");
  static constexpr std::int64_t kDepthBounds[] = {1, 2, 4, 8, 16, 32};
  tm_queue_depth_ = &scope.histogram("queue_depth", kDepthBounds);
  tm_held_delayed_ = &scope.gauge("held_delayed");
}

void RmrRouter::register_endpoint(RmrEndpoint& endpoint) {
  const std::string name(endpoint.endpoint_name());
  EXPLORA_EXPECTS(!name.empty());
  const auto [it, inserted] = endpoints_.emplace(name, &endpoint);
  EXPLORA_EXPECTS(inserted && "endpoint names must be unique");
  (void)it;
}

bool RmrRouter::has_endpoint(std::string_view name) const {
  return endpoints_.find(name) != endpoints_.end();
}

void RmrRouter::add_route(MessageType type, std::string sender,
                          std::string target) {
  routes_[RouteKey{type, std::move(sender)}].push_back(std::move(target));
}

void RmrRouter::remove_route(MessageType type, std::string_view sender) {
  routes_.erase(RouteKey{type, std::string(sender)});
}

LinkImpairments& RmrRouter::configure_impairments(std::uint64_t seed) {
  impairments_ = std::make_unique<LinkImpairments>(seed);
  return *impairments_;
}

const std::vector<std::string>* RmrRouter::find_targets(
    const RicMessage& message) const {
  // Most specific first: exact sender, then wildcard.
  auto it = routes_.find(RouteKey{message.type, message.sender});
  if (it != routes_.end()) return &it->second;
  it = routes_.find(RouteKey{message.type, "*"});
  if (it != routes_.end()) return &it->second;
  return nullptr;
}

void RmrRouter::send(RicMessage message) {
  queue_.push_back(Envelope{std::move(message), std::nullopt});
  if (dispatching_) return;  // the active drain loop will pick it up
  ++round_;
  tm_rounds_->add(1);
  release_due(round_);
  tm_queue_depth_->observe(
      static_cast<std::int64_t>(queue_.size() - queue_head_));
  drain();
  tm_held_delayed_->set(static_cast<std::int64_t>(held_.size()));
}

void RmrRouter::flush_delayed() {
  if (held_.empty()) return;
  release_due(std::numeric_limits<std::uint64_t>::max());
  if (!dispatching_) drain();
  tm_held_delayed_->set(static_cast<std::int64_t>(held_.size()));
}

void RmrRouter::release_due(std::uint64_t up_to_round) {
  if (held_.empty()) return;
  // Stable: due messages re-enter the queue in the order they were held.
  auto due_end = std::stable_partition(
      held_.begin(), held_.end(), [up_to_round](const HeldEnvelope& held) {
        return held.release_round <= up_to_round;
      });
  for (auto it = held_.begin(); it != due_end; ++it) {
    queue_.push_back(std::move(it->envelope));
  }
  held_.erase(held_.begin(), due_end);
}

void RmrRouter::drain() {
  dispatching_ = true;
  while (queue_head_ < queue_.size()) {
    // Moved out first: a handler's send may grow (and move) the queue.
    const Envelope current = std::move(queue_[queue_head_++]);
    dispatch(current);
  }
  queue_.clear();
  queue_head_ = 0;
  dispatching_ = false;
}

void RmrRouter::drop_unroutable(const RicMessage& message,
                                std::string_view reason) {
  tm_dropped_unroutable_->add(1);
  common::logf(common::LogLevel::kWarn, "rmr", "dropped {} from {} ({})",
               to_string(message.type), message.sender, reason);
}

void RmrRouter::dispatch(const Envelope& envelope) {
  ++dispatches_;
  // Router-reinjected deliveries (released delays, duplicate copies,
  // reordered messages) bypass routing and the impairment model.
  if (envelope.direct_target.has_value()) {
    const auto it = endpoints_.find(*envelope.direct_target);
    if (it == endpoints_.end()) {
      drop_unroutable(envelope.message, "target vanished");
      return;
    }
    deliver(envelope.message, *it->second, it->first);
    return;
  }

  const auto* targets = find_targets(envelope.message);
  if (targets == nullptr || targets->empty()) {
    drop_unroutable(envelope.message, "no route");
    return;
  }
  for (const std::string& target : *targets) {
    const auto it = endpoints_.find(target);
    if (it == endpoints_.end()) {
      drop_unroutable(envelope.message, "route target not registered");
      continue;
    }
    if (impairments_ != nullptr) {
      switch (impairments_->decide(envelope.message.type, target)) {
        case LinkImpairments::Fate::kDrop:
          continue;  // lost on this hop
        case LinkImpairments::Fate::kDelay:
          held_.push_back(HeldEnvelope{
              round_ + impairments_->delay_rounds(envelope.message.type,
                                                  target),
              Envelope{envelope.message, target}});
          continue;
        case LinkImpairments::Fate::kDuplicate:
          // Deliver now; the copy arrives one round later.
          held_.push_back(HeldEnvelope{round_ + 1,
                                       Envelope{envelope.message, target}});
          break;
        case LinkImpairments::Fate::kReorder:
          // Re-queue behind everything currently pending; no re-impairment.
          queue_.push_back(Envelope{envelope.message, target});
          continue;
        case LinkImpairments::Fate::kDeliver:
          break;
      }
    }
    deliver(envelope.message, *it->second, target);
  }
}

void RmrRouter::deliver(const RicMessage& message, RmrEndpoint& endpoint,
                        std::string_view target) {
  tm_delivered_->add(1);
  // Handlers only queue their sends, so no dispatch runs inside this one.
  if (tap_ != nullptr) tap_->on_deliver(message, target, round_, dispatches_);
  endpoint.on_message(message);
}

}  // namespace explora::oran
