#include "oran/e2_term.hpp"

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace explora::oran {

E2Termination::E2Termination(netsim::Gnb& gnb, RmrRouter& router)
    : gnb_(&gnb), router_(&router) {
  telemetry::Scope scope("oran.e2term");
  tm_controls_applied_ = &scope.counter("controls_applied");
  tm_controls_rejected_ = &scope.counter("controls_rejected");
  tm_duplicate_controls_ = &scope.counter("duplicate_controls");
  tm_indications_ = &scope.counter("indications");
  tm_control_loop_lag_ = &scope.span("control_loop_lag_ttis");
}

void E2Termination::on_message(const RicMessage& message) {
  if (message.type != MessageType::kRanControl) return;
  const RanControl& ran_control = message.ran_control();

  if (!netsim::is_valid_control(ran_control.control)) {
    ++controls_rejected_;
    tm_controls_rejected_->add(1);
    common::logf(common::LogLevel::kWarn, "e2term",
                 "rejected malformed control {} from {} (decision {})",
                 ran_control.control.to_string(), message.sender,
                 ran_control.decision_id);
    return;  // no apply, no ACK: malformed traffic must not look delivered
  }

  if (ran_control.seq > 0) {
    const auto [it, first_time] =
        applied_seqs_.emplace(message.sender, ran_control.seq);
    (void)it;
    if (!first_time) {
      // A retransmission whose original made it through (the ACK was
      // lost): apply-once, but re-ACK so the sender stops resending.
      tm_duplicate_controls_->add(1);
      router_->send(make_ran_control_ack(std::string(endpoint_name()),
                                         ran_control.seq));
      return;
    }
  }

  gnb_->apply_control(ran_control.control);
  ++controls_applied_;
  tm_controls_applied_->add(1);
  if (last_indication_window_end_ >= 0) {
    // KPM indication -> RIC control lag: gNB ticks elapsed between the end
    // of the last published report window and this control landing. 0 in a
    // healthy synchronous loop; grows under delay/drop impairments.
    tm_control_loop_lag_->record(gnb_->now() - last_indication_window_end_);
  }
  if (ran_control.seq > 0) {
    router_->send(make_ran_control_ack(std::string(endpoint_name()),
                                       ran_control.seq));
  }
}

void E2Termination::collect_and_publish() {
  netsim::KpiReport report = gnb_->run_report_window();
  tm_indications_->add(1);
  last_indication_window_end_ = report.window_end;
  router_->send(
      make_kpm_indication(std::string(endpoint_name()), std::move(report)));
}

}  // namespace explora::oran
