#include "oran/reliable.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace explora::oran {

ReliableControlSender::ReliableControlSender(Config config, RmrRouter& router,
                                             std::string endpoint)
    : config_(config), router_(&router), endpoint_(std::move(endpoint)) {
  EXPLORA_EXPECTS(config_.ack_timeout_ticks >= 1);
  EXPLORA_EXPECTS(config_.backoff_factor >= 1);
  EXPLORA_EXPECTS(!endpoint_.empty());
  telemetry::Scope scope("oran.reliable");
  tm_sent_ = &scope.counter("sent");
  tm_acked_ = &scope.counter("acked");
  tm_retransmissions_ = &scope.counter("retransmissions");
  tm_expired_ = &scope.counter("expired");
  tm_ack_latency_ = &scope.span("ack_latency_ticks");
}

std::uint64_t ReliableControlSender::send(netsim::SlicingControl control,
                                          std::uint64_t decision_id) {
  const std::uint64_t seq = next_seq_++;
  in_flight_.emplace(seq, InFlight{control, decision_id, 0,
                                   config_.ack_timeout_ticks, 0});
  tm_sent_->add(1);
  // Dispatch is synchronous: a fault-free hop ACKs within this call and
  // on_ack() erases the entry before send() returns.
  router_->send(make_ran_control(endpoint_, control, decision_id, seq));
  return seq;
}

void ReliableControlSender::on_ack(std::uint64_t seq) {
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) return;  // expired or duplicate ACK
  tm_ack_latency_->record(static_cast<std::int64_t>(it->second.total_ticks));
  in_flight_.erase(it);
  tm_acked_->add(1);
}

void ReliableControlSender::on_tick() {
  // Collect first, resend after: a resend that reaches the hop ACKs
  // synchronously, and on_ack() mutates in_flight_ mid-iteration.
  std::vector<std::uint64_t> overdue;
  std::vector<std::uint64_t> dead;
  for (auto& [seq, entry] : in_flight_) {
    ++entry.total_ticks;
    if (++entry.ticks_waited < entry.timeout) continue;
    if (entry.retries >= config_.max_retries) {
      dead.push_back(seq);
      continue;
    }
    entry.ticks_waited = 0;
    entry.timeout *= config_.backoff_factor;
    ++entry.retries;
    overdue.push_back(seq);
  }
  for (const std::uint64_t seq : dead) {
    const auto it = in_flight_.find(seq);
    common::logf(common::LogLevel::kWarn, "reliable",
                 "{} gave up on control seq {} (decision {}) after {} retries",
                 endpoint_, seq, it->second.decision_id, config_.max_retries);
    in_flight_.erase(it);
    tm_expired_->add(1);
  }
  for (const std::uint64_t seq : overdue) {
    const auto it = in_flight_.find(seq);
    if (it == in_flight_.end()) continue;  // ACKed by an earlier resend
    tm_retransmissions_->add(1);
    router_->send(make_ran_control(endpoint_, it->second.control,
                                   it->second.decision_id, seq));
  }
}

}  // namespace explora::oran
