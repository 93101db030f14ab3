#include "harness/chaos.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/contracts.hpp"
#include "common/log.hpp"

namespace explora::harness {

namespace {

/// Fixed-precision float for the JSON document. snprintf with "%.6f" is
/// locale-independent for the C locale the binaries run under and yields
/// the same bytes for the same double on every run.
std::string json_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The registry counters each report row carries, in report order: the
/// control plane's decisions and reliable-hop traffic, the receiver-side
/// guards, the injected impairment fates, and the EXPLORA watchdog.
constexpr std::array<std::string_view, 17> kRowCounters = {
    "oran.drl_xapp.decisions",
    "oran.reliable.sent",
    "oran.reliable.acked",
    "oran.reliable.retransmissions",
    "oran.reliable.expired",
    "oran.e2term.controls_applied",
    "oran.e2term.controls_rejected",
    "oran.e2term.duplicate_controls",
    "explora.xapp.duplicate_controls",
    "oran.impairments.dropped.ran_control",
    "oran.impairments.delayed.ran_control",
    "oran.impairments.duplicated.ran_control",
    "oran.impairments.dropped.ric_control_ack",
    "oran.impairments.dropped.kpm_indication",
    "explora.xapp.degraded_episodes",
    "explora.xapp.indications_missed",
    "explora.xapp.reports_discarded",
};

ExperimentOptions base_options(const ChaosConfig& config) {
  ExperimentOptions options;
  options.decisions = config.decisions;
  options.deploy_explora = true;
  options.stochastic_agent = true;
  options.reliable = config.reliable;
  // The gNB report period is known here, so the watchdog does not need to
  // infer it from (possibly already gapped) indication spacing.
  options.expected_report_period = config.scenario.gnb.report_period_ttis;
  options.serving = config.serving;
  return options;
}

/// Serving contract for one row: the queue never grew past its bound,
/// every accepted request was either delivered or shed with a reason, and
/// shedding stayed within the configured rate.
bool serving_contract_holds(const ServingTelemetry& serving,
                            double max_shed_rate) {
  const ExplainService::Stats& stats = serving.stats;
  if (stats.submitted == 0) return true;  // service never came up
  if (stats.queue_high_water > stats.queue_capacity) return false;
  if (stats.accepted != serving.delivered + serving.shed_notices) {
    return false;
  }
  const double shed_rate =
      static_cast<double>(stats.submitted - serving.delivered) /
      static_cast<double>(stats.submitted);
  return shed_rate <= max_shed_rate;
}

}  // namespace

std::vector<ChaosFaultPoint> default_fault_points() {
  return {
      {.label = "drop2", .control_drop = 0.02, .ack_drop = 0.02},
      {.label = "drop5", .control_drop = 0.05, .ack_drop = 0.05},
      {.label = "drop10", .control_drop = 0.10, .ack_drop = 0.10},
      {.label = "delay20", .control_delay = 0.20, .delay_rounds = 2},
      {.label = "dup10", .control_duplicate = 0.10},
      {.label = "mixed",
       .control_drop = 0.05,
       .control_delay = 0.10,
       .delay_rounds = 1,
       .control_duplicate = 0.05,
       .ack_drop = 0.05},
      {.label = "kpm-gap",
       .control_drop = 0.02,
       .indication_drop = 0.15},
      {.label = "slow-explainer",
       .control_drop = 0.02,
       .explainer_slow = 0.30,
       .explainer_slow_factor = 4,
       .explainer_fail = 0.05},
  };
}

bool ChaosReport::all_exactly_once() const {
  for (const ChaosRow& row : rows) {
    if (!row.exactly_once) return false;
  }
  return true;
}

bool ChaosReport::all_bounded() const {
  for (const ChaosRow& row : rows) {
    if (!row.bounded) return false;
  }
  return true;
}

bool ChaosReport::all_serving_ok() const {
  for (const ChaosRow& row : rows) {
    if (!row.serving_ok) return false;
  }
  return true;
}

std::string ChaosReport::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"scenario_seed\": " + std::to_string(scenario_seed) + ",\n";
  out += "  \"fault_seed\": " + std::to_string(fault_seed) + ",\n";
  out += "  \"decisions\": " + std::to_string(decisions) + ",\n";
  out += "  \"baseline_reward\": " + json_double(baseline_reward) + ",\n";
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ChaosRow& row = rows[i];
    out += "    {\"label\": \"" + json_escape(row.point.label) + "\"";
    out += ", \"control_drop\": " + json_double(row.point.control_drop);
    out += ", \"control_delay\": " + json_double(row.point.control_delay);
    out += ", \"control_duplicate\": " +
           json_double(row.point.control_duplicate);
    out += ", \"ack_drop\": " + json_double(row.point.ack_drop);
    out += ", \"indication_drop\": " + json_double(row.point.indication_drop);
    out += ", \"mean_reward\": " + json_double(row.mean_reward);
    out += ", \"degradation\": " + json_double(row.degradation);
    for (const std::string_view name : kRowCounters) {
      out += ", \"" + std::string(name) +
             "\": " + std::to_string(row.telemetry.counter(name));
    }
    out += ", \"controls_in_flight\": " +
           std::to_string(controls_in_flight(row.telemetry));
    const ServingTelemetry& s = row.serving;
    out += ", \"explainer_slow\": " + json_double(row.point.explainer_slow);
    out += ", \"explainer_fail\": " + json_double(row.point.explainer_fail);
    out += ", \"serving_submitted\": " + std::to_string(s.stats.submitted);
    out += ", \"serving_accepted\": " + std::to_string(s.stats.accepted);
    out += ", \"serving_delivered\": " + std::to_string(s.delivered);
    out += ", \"serving_shed\": " + std::to_string(s.stats.shed_total());
    out += ", \"serving_exact\": " + std::to_string(s.stats.served_by_tier[0]);
    out +=
        ", \"serving_sampled\": " + std::to_string(s.stats.served_by_tier[1]);
    out += ", \"serving_surrogate\": " +
           std::to_string(s.stats.served_by_tier[2]);
    out += ", \"serving_cached\": " + std::to_string(s.stats.served_by_tier[3]);
    out += ", \"serving_demoted\": " + std::to_string(s.stats.demoted_requests);
    out += ", \"serving_eval_faults\": " + std::to_string(s.stats.eval_faults);
    out +=
        ", \"serving_breaker_trips\": " + std::to_string(s.stats.breaker_trips);
    out += ", \"serving_queue_high_water\": " +
           std::to_string(s.stats.queue_high_water);
    out += ", \"serving_digest\": " + std::to_string(s.stream_digest);
    out += ", \"exactly_once\": " + std::string(row.exactly_once ? "true"
                                                                 : "false");
    out += ", \"bounded\": " + std::string(row.bounded ? "true" : "false");
    out +=
        ", \"serving_ok\": " + std::string(row.serving_ok ? "true" : "false");
    out += "}";
    if (i + 1 < rows.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::uint64_t controls_in_flight(
    const telemetry::TelemetrySnapshot& telemetry) {
  return telemetry.counter("oran.reliable.sent") -
         telemetry.counter("oran.reliable.acked") -
         telemetry.counter("oran.reliable.expired");
}

ChaosReport run_chaos_sweep(const TrainedSystem& system,
                            const ChaosConfig& config) {
  EXPLORA_EXPECTS_MSG(telemetry::kCompiledIn,
                      "chaos verdicts read telemetry, which is compiled out");
  EXPLORA_EXPECTS(config.decisions > 0);
  EXPLORA_EXPECTS(config.max_reward_degradation > 0.0);

  ChaosReport report;
  report.scenario_seed = config.scenario.seed;
  report.fault_seed = config.fault_seed;
  report.decisions = config.decisions;

  const ExperimentResult baseline = run_experiment(
      system, config.scenario, base_options(config), config.training);
  report.baseline_reward = baseline.mean_reward();
  common::logf(common::LogLevel::kInfo, "chaos",
               "baseline mean reward {} over {} decisions",
               report.baseline_reward, config.decisions);

  report.rows.reserve(config.points.size());
  for (const ChaosFaultPoint& point : config.points) {
    ExperimentOptions options = base_options(config);
    if (options.serving.has_value()) {
      options.serving->eval_slow_probability = point.explainer_slow;
      options.serving->eval_slow_factor = point.explainer_slow_factor;
      options.serving->eval_failure_probability = point.explainer_fail;
    }
    FaultInjectionOptions faults;
    faults.seed = config.fault_seed;
    faults.control = {.drop = point.control_drop,
                      .delay = point.control_delay,
                      .delay_rounds = point.delay_rounds,
                      .duplicate = point.control_duplicate};
    faults.ack = {.drop = point.ack_drop};
    faults.indication = {.drop = point.indication_drop};
    options.faults = faults;

    ExperimentResult result =
        run_experiment(system, config.scenario, options, config.training);

    ChaosRow row;
    row.point = point;
    row.mean_reward = result.mean_reward();
    row.telemetry = std::move(result.telemetry);
    if (result.serving.has_value()) row.serving = *result.serving;
    row.serving_ok = serving_contract_holds(row.serving, config.max_shed_rate);
    const double scale = std::abs(report.baseline_reward);
    row.degradation =
        scale > 0.0 ? (report.baseline_reward - row.mean_reward) / scale
                    : 0.0;
    // Exactly-once: every decision reached the gNB (none expired out of
    // retries, none stranded in flight) and the (sender, seq) guards
    // absorbed every duplicate delivery.
    const telemetry::TelemetrySnapshot& t = row.telemetry;
    const std::uint64_t applied = t.counter("oran.e2term.controls_applied");
    const std::uint64_t decided = t.counter("oran.drl_xapp.decisions");
    row.exactly_once = t.counter("oran.reliable.expired") == 0 &&
                       controls_in_flight(t) == 0 && applied == decided &&
                       t.counter("oran.e2term.controls_rejected") == 0;
    row.bounded = row.degradation <= config.max_reward_degradation;
    common::logf(common::LogLevel::kInfo, "chaos",
                 "point {}: reward {} (degradation {}), applied {}/{}, "
                 "retx {}, exactly_once={}, bounded={}",
                 point.label, row.mean_reward, row.degradation, applied,
                 decided, t.counter("oran.reliable.retransmissions"),
                 row.exactly_once, row.bounded);
    common::logf(common::LogLevel::kInfo, "chaos",
                 "point {} serving: {} submitted, {} delivered, {} shed, "
                 "{} demoted, {} eval faults, high water {}/{}, "
                 "serving_ok={}",
                 point.label, row.serving.stats.submitted,
                 row.serving.delivered, row.serving.stats.shed_total(),
                 row.serving.stats.demoted_requests,
                 row.serving.stats.eval_faults,
                 row.serving.stats.queue_high_water,
                 row.serving.stats.queue_capacity, row.serving_ok);
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace explora::harness
