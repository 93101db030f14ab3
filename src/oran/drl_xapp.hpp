// The DRL xApp (Fig. 2 + Fig. 6): consumes E2 KPM indications, maintains
// the M-report input window, feeds it through the autoencoder, and lets the
// PPO agent emit a slicing/scheduling RAN-control message once per decision
// period. The emitted message is routed by the RMR — directly to the E2
// termination, or through the EXPLORA xApp when it is deployed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "ml/agent.hpp"
#include "ml/autoencoder.hpp"
#include "ml/features.hpp"
#include "oran/reliable.hpp"
#include "oran/rmr.hpp"

namespace explora::oran {

class DrlXapp final : public RmrEndpoint {
 public:
  struct Config {
    std::string name = "drl_xapp";
    /// Decisions fire every this many indications (M = 10 in the paper).
    std::size_t reports_per_decision = ml::kHistory;
    /// Sample from the policy instead of argmax (exploration mode).
    bool stochastic = false;
    /// Sampling temperatures (< 1 sharpens toward the greedy action).
    /// The PRB head runs colder than the scheduler heads: its alphabet is
    /// an order of magnitude larger, so matching temperatures would make
    /// the slicing mode disproportionately noisy.
    double prb_temperature = 1.0;
    double sched_temperature = 1.0;
    std::uint64_t seed = 1234;
    /// When set, controls are sequence-numbered and resent until the next
    /// hop ACKs (timeout/backoff clocked by incoming KPM indications).
    /// Unset keeps the legacy fire-and-forget seq-0 sends.
    std::optional<ReliableControlSender::Config> reliable;
  };

  /// Model components are borrowed (non-owning): the caller — typically
  /// the experiment harness holding a TrainedSystem — must keep them alive
  /// for the xApp's lifetime. Inference is const on all of them.
  DrlXapp(Config config, const ml::KpiNormalizer& normalizer,
          const ml::Autoencoder& autoencoder, const ml::PolicyAgent& agent,
          RmrRouter& router);

  [[nodiscard]] std::string_view endpoint_name() const noexcept override {
    return config_.name;
  }
  void on_message(const RicMessage& message) override;

  [[nodiscard]] std::uint64_t decisions_made() const noexcept {
    return decision_id_;
  }
  /// Latent state used for the most recent decision (empty before the
  /// first); this is what SHAP and EXPLORA introspect.
  [[nodiscard]] const ml::Vector& last_latent() const noexcept {
    return last_latent_;
  }
  [[nodiscard]] const std::optional<ml::PolicyDecision>& last_decision()
      const noexcept {
    return last_decision_;
  }
  [[nodiscard]] const ml::InputWindow& window() const noexcept {
    return window_;
  }
  [[nodiscard]] const ml::Autoencoder& autoencoder() const noexcept {
    return *autoencoder_;
  }
  [[nodiscard]] const ml::PolicyAgent& agent() const noexcept {
    return *agent_;
  }
  [[nodiscard]] const ml::KpiNormalizer& normalizer() const noexcept {
    return *normalizer_;
  }
  /// Reliable-delivery telemetry (nullptr when config.reliable is unset).
  [[nodiscard]] const ReliableControlSender* reliable() const noexcept {
    return reliable_.has_value() ? &*reliable_ : nullptr;
  }
  /// Advances reliable-delivery time without an indication — used by the
  /// harness to drain in-flight controls after the last report window.
  void pump_reliable() {
    if (reliable_.has_value()) reliable_->on_tick();
  }

 private:
  void decide();

  Config config_;
  const ml::KpiNormalizer* normalizer_;
  const ml::Autoencoder* autoencoder_;
  const ml::PolicyAgent* agent_;
  RmrRouter* router_;
  common::Rng rng_;
  ml::InputWindow window_;
  std::array<double, ml::kInputDim> input_{};  ///< the flattened window
  std::optional<ReliableControlSender> reliable_;
  std::uint64_t indications_seen_ = 0;
  std::uint64_t decision_id_ = 0;
  ml::Vector last_latent_;
  std::optional<ml::PolicyDecision> last_decision_;

  // Telemetry (oran.drl_xapp.*), bound at construction.
  telemetry::Counter* tm_indications_;
  telemetry::Counter* tm_decisions_;
};

}  // namespace explora::oran
