// The RIC Message Router (RMR) analogue: named endpoints plus a route
// table keyed by (message type, sender). This is the mechanism the paper
// uses to interpose the EXPLORA xApp on RAN-control messages without
// modifying the DRL xApp (§5.1, Fig. 6): re-pointing one route swaps the
// direct "DRL xApp -> E2 termination" path for
// "DRL xApp -> EXPLORA xApp -> E2 termination".
//
// Dispatch is synchronous but queued (breadth-first), so a handler that
// emits messages never recurses into other handlers.
//
// An optional LinkImpairments model makes the router lossy on purpose:
// per-(type, target) drop / delay / duplicate / reorder fates, decided in
// dispatch order from one seeded stream. Time for delayed messages is
// counted in *dispatch rounds* — one round per top-level send() — so a
// chaos run needs no wall clock and stays bit-reproducible.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/telemetry.hpp"
#include "oran/impairments.hpp"
#include "oran/messages.hpp"

namespace explora::oran {

/// Anything addressable by the router (xApps, E2 termination, microservices).
class RmrEndpoint {
 public:
  virtual ~RmrEndpoint() = default;
  [[nodiscard]] virtual std::string_view endpoint_name() const noexcept = 0;
  /// Handles one delivered message; may send follow-ups via the router.
  virtual void on_message(const RicMessage& message) = 0;
};

/// Observer of successful deliveries (trace capture). The tap fires once
/// per delivered (message, target) pair, in delivery order, immediately
/// before the endpoint handler runs — so a recorded stream replayed into
/// an endpoint presents exactly the inputs the live endpoint saw.
/// `dispatch` numbers the router's dispatches: deliveries that share it
/// carry one message, fanned out by one route lookup, and arrive one
/// after another. A re-injected delivery (a released delay, a duplicate
/// copy, a reordered message) is a dispatch of its own.
class DeliveryTap {
 public:
  virtual ~DeliveryTap() = default;
  virtual void on_deliver(const RicMessage& message, std::string_view target,
                          std::uint64_t round, std::uint64_t dispatch) = 0;
};

class RmrRouter {
 public:
  RmrRouter();

  /// Registers an endpoint (non-owning; the endpoint must outlive the
  /// router's use). The endpoint name must be unique.
  void register_endpoint(RmrEndpoint& endpoint);
  [[nodiscard]] bool has_endpoint(std::string_view name) const;

  /// Adds a route: messages of `type` from `sender` go to `target`.
  /// sender "*" matches any sender without a more specific rule.
  void add_route(MessageType type, std::string sender, std::string target);
  /// Removes all routes for (type, sender).
  void remove_route(MessageType type, std::string_view sender);

  /// Enqueues and dispatches until the queue drains. Each top-level call
  /// (not re-entrant sends from handlers) advances the dispatch round and
  /// first releases any impairment-delayed messages that are due.
  void send(RicMessage message);

  /// Installs the impairment model (replacing any previous one) and
  /// returns it for policy configuration. The router owns the model.
  LinkImpairments& configure_impairments(std::uint64_t seed);
  /// The active impairment model, or nullptr for a perfect fabric.
  [[nodiscard]] LinkImpairments* impairments() noexcept {
    return impairments_.get();
  }
  [[nodiscard]] const LinkImpairments* impairments() const noexcept {
    return impairments_.get();
  }
  void clear_impairments() noexcept { impairments_.reset(); }

  /// Installs (or clears, with nullptr) the delivery tap. Non-owning; the
  /// tap must outlive the router's use or be cleared first.
  void set_delivery_tap(DeliveryTap* tap) noexcept { tap_ = tap; }
  [[nodiscard]] DeliveryTap* delivery_tap() const noexcept { return tap_; }

  /// Releases every still-held delayed message immediately and drains the
  /// queue (end-of-run cleanup for chaos harnesses).
  void flush_delayed();
  /// Messages currently held back by a delay fate.
  [[nodiscard]] std::size_t pending_delayed() const noexcept {
    return held_.size();
  }

 private:
  struct RouteKey {
    MessageType type;
    std::string sender;
    [[nodiscard]] friend bool operator<(const RouteKey& a, const RouteKey& b) {
      if (a.type != b.type) return a.type < b.type;
      return a.sender < b.sender;
    }
  };

  /// One queued delivery. Routed envelopes (no target) are resolved
  /// against the route table and pass the impairment model; direct
  /// envelopes (router-reinjected: released delays, duplicates, reorders)
  /// go straight to their target.
  struct Envelope {
    RicMessage message;
    std::optional<std::string> direct_target;
  };

  struct HeldEnvelope {
    std::uint64_t release_round = 0;
    Envelope envelope;
  };

  [[nodiscard]] const std::vector<std::string>* find_targets(
      const RicMessage& message) const;
  void dispatch(const Envelope& envelope);
  void deliver(const RicMessage& message, RmrEndpoint& endpoint,
               std::string_view target);
  void drop_unroutable(const RicMessage& message, std::string_view reason);
  void release_due(std::uint64_t up_to_round);
  void drain();

  std::map<std::string, RmrEndpoint*, std::less<>> endpoints_;
  std::map<RouteKey, std::vector<std::string>> routes_;
  /// Pending deliveries, a FIFO from queue_head_ on that reuses its
  /// storage: every top-level send drains it, which rewinds it, so in
  /// steady state queueing allocates nothing.
  std::vector<Envelope> queue_;
  std::size_t queue_head_ = 0;
  std::vector<HeldEnvelope> held_;
  std::unique_ptr<LinkImpairments> impairments_;
  DeliveryTap* tap_ = nullptr;
  std::uint64_t round_ = 0;
  std::uint64_t dispatches_ = 0;  ///< dispatch() calls so far
  bool dispatching_ = false;

  // Telemetry (oran.rmr.*), bound at construction. dropped_unroutable
  // counts messages that matched no route or an unregistered target
  // (dropped, like RMR — but loudly: each drop logs a warning).
  telemetry::Counter* tm_rounds_;
  telemetry::Counter* tm_delivered_;
  telemetry::Counter* tm_dropped_unroutable_;
  telemetry::Histogram* tm_queue_depth_;
  telemetry::Gauge* tm_held_delayed_;
};

}  // namespace explora::oran
