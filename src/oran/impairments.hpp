// Deterministic link-impairment model for the RMR-style router: per
// (message type, target endpoint) drop / delay / duplicate / reorder
// policies, drawn from one named common::Rng stream so a chaos run is
// bit-reproducible for a given (seed, policy set) and independent of
// EXPLORA_THREADS (dispatch is single-threaded and ordered).
//
// Fates are decided once per (message, target) delivery, in dispatch
// order. Deliveries that the router re-injects itself — released delayed
// messages, duplicate copies, reordered messages — are NOT re-impaired;
// this keeps every chaos run terminating and makes "delay by N rounds"
// mean exactly N rounds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "oran/messages.hpp"

namespace explora::oran {

class LinkImpairments {
 public:
  /// Per-route fault rates. All probabilities in [0, 1]; a default policy
  /// is a perfect link. Precedence when several faults draw true:
  /// drop > delay > duplicate > reorder.
  struct Policy {
    double drop = 0.0;        ///< message lost on this hop
    double delay = 0.0;       ///< message held for `delay_rounds` rounds
    std::uint32_t delay_rounds = 1;  ///< dispatch rounds a delayed message waits
    double duplicate = 0.0;   ///< delivered now and again next round
    double reorder = 0.0;     ///< pushed behind the currently queued messages

    [[nodiscard]] bool perfect() const noexcept {
      return drop <= 0.0 && delay <= 0.0 && duplicate <= 0.0 &&
             reorder <= 0.0;
    }
  };

  /// What the router should do with one (message, target) delivery.
  enum class Fate : std::uint8_t {
    kDeliver = 0,
    kDrop,
    kDelay,
    kDuplicate,
    kReorder,
  };

  explicit LinkImpairments(std::uint64_t seed);

  /// Installs `policy` for messages of `type` delivered to `target`;
  /// target "*" matches any endpoint without a more specific policy.
  void set_policy(MessageType type, std::string target, Policy policy);

  /// The policy governing one delivery (most specific first), or nullptr.
  [[nodiscard]] const Policy* policy_for(MessageType type,
                                         std::string_view target) const;

  /// Draws the fate of one delivery and counts it in the registry under
  /// its fate and message type (oran.impairments.dropped.ran_control, ...).
  [[nodiscard]] Fate decide(MessageType type, std::string_view target);

  /// Rounds a delayed message of this (type, target) waits (>= 1).
  [[nodiscard]] std::uint32_t delay_rounds(MessageType type,
                                           std::string_view target) const;

 private:
  struct PolicyKey {
    MessageType type;
    std::string target;
    [[nodiscard]] friend bool operator<(const PolicyKey& a,
                                        const PolicyKey& b) {
      if (a.type != b.type) return a.type < b.type;
      return a.target < b.target;
    }
  };

  std::map<PolicyKey, Policy> policies_;
  common::Rng rng_;
  // Telemetry (oran.impairments.<fate>.<type>), bound at construction,
  // one set per message type (index by MessageType).
  struct FateCounters {
    telemetry::Counter* dropped = nullptr;
    telemetry::Counter* delayed = nullptr;
    telemetry::Counter* duplicated = nullptr;
    telemetry::Counter* reordered = nullptr;
  };
  std::array<FateCounters, kNumMessageTypes> tm_{};
};

}  // namespace explora::oran
