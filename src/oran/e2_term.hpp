// E2 termination: the RIC-side endpoint of the E2 interface. Downstream it
// applies RAN-control messages to the gNB — rejecting malformed controls,
// deduplicating retransmissions on (sender, seq), and confirming
// sequenced deliveries with RIC_CONTROL_ACK. Upstream it wraps the gNB's
// KPI reports into KPM indications for the router.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "common/telemetry.hpp"
#include "netsim/gnb.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

class E2Termination final : public RmrEndpoint {
 public:
  /// @param gnb the controlled RAN node (non-owning, must outlive this).
  /// @param router used to publish indications (non-owning).
  E2Termination(netsim::Gnb& gnb, RmrRouter& router);

  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return "e2term";
  }
  /// Applies RAN-control messages to the gNB. A control carrying seq > 0
  /// is ACKed back to its sender and applied at most once per (sender,
  /// seq) — a retransmitted duplicate is re-ACKed but not re-applied.
  /// Malformed controls (empty PRB mask, over-budget PRBs, unknown
  /// scheduler id) are rejected, counted, and never ACKed.
  void on_message(const RicMessage& message) override;

  /// Runs one E2 report window on the gNB and publishes the KPM indication.
  void collect_and_publish();

  [[nodiscard]] std::uint64_t controls_applied() const noexcept {
    return controls_applied_;
  }
  /// Malformed controls refused (reject, don't apply).
  [[nodiscard]] std::uint64_t controls_rejected() const noexcept {
    return controls_rejected_;
  }

 private:
  netsim::Gnb* gnb_;
  RmrRouter* router_;
  std::uint64_t controls_applied_ = 0;
  std::uint64_t controls_rejected_ = 0;
  /// (sender, seq) pairs already applied — the idempotency guard. seq 0
  /// (legacy unsequenced sends) is never recorded here.
  std::set<std::pair<std::string, std::uint64_t>> applied_seqs_;
  /// window_end of the most recent published indication; -1 before the
  /// first one. Basis for the control-loop-lag span.
  netsim::Tick last_indication_window_end_ = -1;

  // Telemetry (oran.e2term.*), bound at construction. duplicate_controls
  // counts the retransmissions the (sender, seq) guard suppressed;
  // indications counts the KPM indications published. control_loop_lag is
  // a span over gNB ticks from the last KPM indication's window end to the
  // moment the resulting control lands — the paper's KPM->control loop
  // latency, in simulated TTIs.
  telemetry::Counter* tm_controls_applied_;
  telemetry::Counter* tm_controls_rejected_;
  telemetry::Counter* tm_duplicate_controls_;
  telemetry::Counter* tm_indications_;
  telemetry::SpanStat* tm_control_loop_lag_;
};

}  // namespace explora::oran
