// Reliable per-hop delivery for RAN-control messages over the lossy RMR
// fabric: the transmitting endpoint assigns a monotonic sequence number,
// tracks the message until the next hop returns a RIC_CONTROL_ACK, and
// resends on timeout with exponential backoff and a bounded retry budget.
//
// Time is counted in *ticks*, not wall clock: the owning xApp calls
// on_tick() once per E2 report window (each KPM indication it receives),
// so retransmission timing is deterministic and seed-reproducible. The
// receiving hop deduplicates on (sender, seq) — the apply-exactly-once
// guard — and re-ACKs duplicates so a lost ACK does not strand the sender.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/telemetry.hpp"
#include "netsim/types.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

class ReliableControlSender {
 public:
  struct Config {
    /// Ticks (report windows) to wait for an ACK before the first resend.
    std::uint32_t ack_timeout_ticks = 2;
    /// Resends per control before giving up.
    std::uint32_t max_retries = 6;
    /// Timeout multiplier applied after every resend (exponential backoff).
    std::uint32_t backoff_factor = 2;
  };

  /// @param endpoint name stamped as the sender of (re)transmissions.
  ReliableControlSender(Config config, RmrRouter& router,
                        std::string endpoint);

  /// Assigns the next sequence number, sends the control, and tracks it
  /// until ACKed or expired. Returns the assigned seq.
  std::uint64_t send(netsim::SlicingControl control, std::uint64_t decision_id);

  /// Handles a RIC_CONTROL_ACK for `seq` (unknown seqs are ignored — the
  /// ACK of an already-expired or duplicate-covered transmission).
  void on_ack(std::uint64_t seq);

  /// Advances reliable-delivery time by one report window: overdue
  /// in-flight controls are resent (or expired once out of retries).
  void on_tick();

  /// Controls sent and neither ACKed nor expired yet. Sends, ACKs,
  /// retransmissions and expiries are counted only in the registry
  /// (oran.reliable.*).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.size();
  }

 private:
  struct InFlight {
    netsim::SlicingControl control;
    std::uint64_t decision_id = 0;
    std::uint32_t ticks_waited = 0;
    std::uint32_t timeout = 0;
    std::uint32_t retries = 0;
    std::uint32_t total_ticks = 0;  ///< ticks since first send (ACK latency)
  };

  Config config_;
  RmrRouter* router_;
  std::string endpoint_;
  std::map<std::uint64_t, InFlight> in_flight_;  ///< keyed by seq
  std::uint64_t next_seq_ = 1;

  // Telemetry (oran.reliable.*), bound at construction. expired counts
  // controls abandoned after exhausting the retry budget; ack_latency is a
  // span over report-window ticks from first transmission to ACK.
  telemetry::Counter* tm_sent_;
  telemetry::Counter* tm_acked_;
  telemetry::Counter* tm_retransmissions_;
  telemetry::Counter* tm_expired_;
  telemetry::SpanStat* tm_ack_latency_;
};

}  // namespace explora::oran
