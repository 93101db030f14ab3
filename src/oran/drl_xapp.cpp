#include "oran/drl_xapp.hpp"

#include "common/contracts.hpp"

namespace explora::oran {

DrlXapp::DrlXapp(Config config, const ml::KpiNormalizer& normalizer,
                 const ml::Autoencoder& autoencoder,
                 const ml::PolicyAgent& agent, RmrRouter& router)
    : config_(std::move(config)),
      normalizer_(&normalizer),
      autoencoder_(&autoencoder),
      agent_(&agent),
      router_(&router),
      rng_(config_.seed) {
  EXPLORA_EXPECTS(config_.reports_per_decision > 0);
  telemetry::Scope scope("oran.drl_xapp");
  tm_indications_ = &scope.counter("indications");
  tm_decisions_ = &scope.counter("decisions");
  if (config_.reliable.has_value()) {
    reliable_.emplace(*config_.reliable, router, config_.name);
  }
}

void DrlXapp::on_message(const RicMessage& message) {
  if (message.type == MessageType::kRanControlAck) {
    if (reliable_.has_value()) reliable_->on_ack(message.control_ack().seq);
    return;
  }
  if (message.type != MessageType::kKpmIndication) return;
  // Each report window is one reliable-delivery tick: overdue unACKed
  // controls are resent here, at window cadence, not from a wall clock.
  if (reliable_.has_value()) reliable_->on_tick();
  window_.push(message.kpm().report);
  ++indications_seen_;
  tm_indications_->add(1);
  if (window_.ready() &&
      indications_seen_ % config_.reports_per_decision == 0) {
    decide();
  }
}

void DrlXapp::decide() {
  // Into retained buffers: a decision allocates nothing here.
  window_.flatten(*normalizer_, input_);
  last_latent_.resize(autoencoder_->config().latent_dim);
  autoencoder_->encode(input_, last_latent_);
  if (config_.stochastic) {
    std::array<double, ml::kNumHeads> temperatures{};
    temperatures.fill(config_.sched_temperature);
    temperatures[0] = config_.prb_temperature;
    last_decision_ = agent_->act(last_latent_, rng_, temperatures);
  } else {
    last_decision_ = agent_->act_greedy(last_latent_);
  }
  ++decision_id_;
  tm_decisions_->add(1);
  const netsim::SlicingControl control = ml::to_control(last_decision_->action);
  if (reliable_.has_value()) {
    reliable_->send(control, decision_id_);
  } else {
    router_->send(make_ran_control(config_.name, control, decision_id_));
  }
}

}  // namespace explora::oran
