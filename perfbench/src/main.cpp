// perfbench — the closed-loop benchmark. One process runs one workload for
// a fixed measuring time and prints, as its last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload loop_steer|loop_serve|trace_replay --seed N
//             --seconds S --trace 0|1 [--spans-dir DIR]
//   perfbench --train     (train the cached system into $EXPLORA_ARTIFACTS)
//
// --trace 0 reports the end-to-end metrics (untraced runs). --trace 1
// alternates untraced and traced runs and reports the per-layer metrics
// from span self times, plus the tracing overhead and coverage; with
// --spans-dir the last traced run's spans are written there as CSV.
// Every run checks its outputs (see README.md, "Correctness gate") and
// exits 1 when a check fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "explora/distill.hpp"
#include "explora/explain_service.hpp"
#include "harness/replay.hpp"
#include "loop.hpp"
#include "ml/gemm.hpp"
#include "oran/trace.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using namespace explora;

constexpr std::size_t kSteerDecisions = 720;   // 3 simulated minutes
constexpr std::size_t kServeDecisions = 120;
constexpr std::size_t kTraceDecisions = 2880;  // 12 simulated minutes
constexpr std::size_t kWarmDecisions = 24;
constexpr std::size_t kSetups = 5;
// Synthesis is timed for this share of the measuring window, in slices.
constexpr double kSynthesisShare = 0.015;
constexpr std::size_t kSynthesisMinReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool train = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "loop_steer|loop_serve|trace_replay --seed N --seconds S "
               "--trace 0|1 [--spans-dir DIR]\n       perfbench --train\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--train") {
      args.train = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value);
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--spans-dir") {
      args.spans_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!args.train && args.workload != "loop_steer" &&
      args.workload != "loop_serve" && args.workload != "trace_replay") {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Nearest-rank percentile.
template <typename T>
T percentile(std::vector<T> values, int pct) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      (values.size() * static_cast<std::size_t>(pct) + 99) / 100;
  return values[rank == 0 ? 0 : rank - 1];
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t digest = 14695981039346656037ULL;
  for (const std::uint8_t byte : bytes) {
    digest ^= byte;
    digest *= 1099511628211ULL;
  }
  return digest;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- output -----------------------------------------------------------------

std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  (void)ec;
  return std::string(buffer, end);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "perfbench: CHECK FAILED — %s\n", what.c_str());
    }
  }
  void check_empty(const std::string& difference, const std::string& what) {
    check(difference.empty(), what + ": " + difference);
  }
  [[nodiscard]] bool correct() const { return correct_; }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "" : ", ") + quoted(m.name) +
             ": {\"value\": " + number(m.value) +
             ", \"unit\": " + quoted(m.unit) + "}";
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint(const Args& args) {
  std::string out = "{\"fingerprint\": {";
  out += "\"workload\": " + quoted(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"threads\": " +
         std::to_string(common::global_pool().thread_count());
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": " + quoted(cpu_model());
  out += ", \"gemm_backend\": " +
         quoted(ml::gemm::to_string(ml::gemm::active_backend()));
  out += ", \"compiler\": " + quoted(__VERSION__);
  out += ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"check_level\": " + std::to_string(EXPLORA_CHECK_LEVEL);
  out += ", \"telemetry_level\": " + std::to_string(EXPLORA_TELEMETRY_LEVEL);
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

// --- workload configuration ------------------------------------------------

/// loop_steer: the EXPLORA xApp interposed with AR1 (max-reward) EDBR
/// steering. The warmer PRB head is the paper's imperfect-policy regime
/// for the steering experiments (bench_common's run_steered).
harness::ExperimentOptions steer_options(std::size_t decisions,
                                         std::uint64_t seed) {
  harness::ExperimentOptions options;
  options.decisions = decisions;
  options.deploy_explora = true;
  options.prb_temperature = 0.8;
  options.xapp_seed = 555 + seed;
  core::ActionSteering::Config steering;
  steering.strategy = core::SteeringStrategy::kMaxReward;
  steering.observation_window = 10;
  options.steering = steering;
  return options;
}

/// loop_serve: the same loop plus 4 explanation requests per decision.
harness::ExperimentOptions serve_options(std::size_t decisions,
                                         std::uint64_t seed) {
  harness::ExperimentOptions options = steer_options(decisions, seed);
  harness::ServingOptions serving;
  serving.requests_per_decision = 4;
  options.serving = serving;
  return options;
}

/// Times core::KnowledgeDistiller::distill over one run's transition
/// events in short slices between repetitions, so that the samples span
/// the whole measuring window rather than one moment of it.
class SynthesisTimer {
 public:
  void set_events(std::vector<core::TransitionEvent> events) {
    events_ = std::move(events);
  }
  [[nodiscard]] bool ready() const { return !events_.empty(); }

  /// Distills at least once and until `budget_s` has passed.
  void slice(double budget_s) {
    const std::int64_t begin = now_ns();
    const auto budget = static_cast<std::int64_t>(budget_s * 1e9);
    do {
      const std::int64_t start = now_ns();
      const core::DistilledKnowledge knowledge = distiller_.distill(events_);
      samples_.push_back(static_cast<double>(now_ns() - start) / 1e6);
      summarized_ = summarized_ && !knowledge.summary_text.empty();
    } while (now_ns() - begin < budget);
  }

  /// Tops the samples up to kSynthesisMinReps, checks every distill
  /// rendered its class summaries and returns the best time in ms (every
  /// distill does the same work; see BestTimes for why the best).
  [[nodiscard]] double finish(Report& report) {
    while (samples_.size() < kSynthesisMinReps) slice(0.0);
    report.check(summarized_, "synthesis renders its class summaries");
    return *std::min_element(samples_.begin(), samples_.end());
  }

 private:
  const core::KnowledgeDistiller distiller_;
  std::vector<core::TransitionEvent> events_;
  std::vector<double> samples_;
  bool summarized_ = true;
};

struct Setup {
  double load_s = 0.0;
  double record_s = 0.0;
  double pipeline_s = 0.0;
  [[nodiscard]] double total() const { return load_s + record_s + pipeline_s; }
};

void report_setup(Report& report, const std::vector<Setup>& setups,
                  bool trace) {
  auto median_of = [&setups](double (*field)(const Setup&)) {
    std::vector<double> values;
    for (const Setup& s : setups) values.push_back(field(s));
    return median(values);
  };
  if (!trace) {
    report.metric("setup_s", median_of([](const Setup& s) { return s.total(); }),
                  "s");
    return;
  }
  report.metric("setup.load_s",
                median_of([](const Setup& s) { return s.load_s; }), "s");
  report.metric("setup.record_s",
                median_of([](const Setup& s) { return s.record_s; }), "s");
  report.metric("setup.pipeline_s",
                median_of([](const Setup& s) { return s.pipeline_s; }), "s");
}

void log_walls(const char* what, const std::vector<double>& walls) {
  std::string line = std::string("perfbench: ") + what + " (s):";
  for (const double w : walls) line += " " + number(w);
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Runs `body` at least `min_runs` times and until it has run for
/// `seconds` in total. After each call, `between(progress, wall_s)` gets
/// the share of the window used so far and that call's wall time; the
/// time spent in `between` is not counted.
void measure(double seconds, std::size_t min_runs,
             const std::function<void(std::size_t)>& body,
             const std::function<void(double, double)>& between) {
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t spent = 0;
  for (std::size_t i = 0; i < min_runs || spent < budget; ++i) {
    const std::int64_t start = now_ns();
    body(i);
    const std::int64_t wall = now_ns() - start;
    spent += wall;
    between(static_cast<double>(spent) / static_cast<double>(budget),
            static_cast<double>(wall) / 1e9);
  }
}

/// The set-ups after the first are spread over the measuring window (the
/// kSetups - 1 others at even shares of it), for the same reason as the
/// synthesis slices; `set_up` runs the remaining ones at the end of a
/// short run. Each replaces the products of the one before, so only one
/// set-up's memory is ever held.
void spread_setups(double progress, std::vector<Setup>& setups,
                   const std::function<Setup()>& set_up) {
  while (setups.size() < kSetups &&
         progress >= static_cast<double>(setups.size()) /
                         static_cast<double>(kSetups)) {
    setups.push_back(set_up());
  }
}

std::string spans_path(const Args& args) {
  return args.spans_dir + "/" + args.workload + ".spans.csv";
}

/// Per-layer metrics every workload emits; layers a workload does not
/// exercise read 0.
struct LayerReport {
  double netsim_window_us = 0, netsim_windows = 0;
  double route_us = 0, deliveries = 0, repo_us = 0, apply_us = 0;
  double parse_us = 0, decode_us = 0, trace_bytes = 0;
  double decide_us = 0, ingest_us = 0;
  double kpm_us = 0, control_us = 0, graph_nodes = 0, transitions = 0,
         replaced_per_decision = 0;
  double submit_us = 0, tick_busy_us = 0, tick_idle_us = 0;
  double served[3] = {0, 0, 0};  // exact, sampled, cached
  double shed[4] = {0, 0, 0, 0};
  double shed_ratio = 0, demoted = 0, queue_high_water = 0,
         wait_ticks_p99 = 0, shap_evals = 0;
  double bookkeeping_us = 0;
  double overhead_pct = 0, coverage_pct = 0;

  void emit(Report& report) const {
    report.metric("netsim.window_us", netsim_window_us, "us");
    report.metric("netsim.windows", netsim_windows, "count");
    report.metric("oran.route_us", route_us, "us");
    report.metric("oran.deliveries", deliveries, "count");
    report.metric("oran.repo_us", repo_us, "us");
    report.metric("oran.e2term_apply_us", apply_us, "us");
    report.metric("oran.trace_parse_us", parse_us, "us");
    report.metric("oran.replay_decode_us", decode_us, "us");
    report.metric("oran.trace_bytes", trace_bytes, "bytes");
    report.metric("ml.decide_us", decide_us, "us");
    report.metric("ml.ingest_us", ingest_us, "us");
    report.metric("explora.kpm_us", kpm_us, "us");
    report.metric("explora.control_us", control_us, "us");
    report.metric("explora.graph_nodes", graph_nodes, "count");
    report.metric("explora.transition_events", transitions, "count");
    report.metric("explora.replaced_per_decision", replaced_per_decision,
                  "ratio");
    report.metric("serving.submit_us", submit_us, "us");
    report.metric("serving.tick_busy_us", tick_busy_us, "us");
    report.metric("serving.tick_idle_us", tick_idle_us, "us");
    report.metric("serving.served.exact", served[0], "count");
    report.metric("serving.served.sampled", served[1], "count");
    report.metric("serving.served.cached", served[2], "count");
    for (std::size_t r = 0; r < 4; ++r) {
      report.metric(
          "serving.shed." +
              std::string(xai::serving::to_string(
                  static_cast<xai::serving::ShedReason>(r + 1))),
          shed[r], "count");
    }
    report.metric("explain_shed_ratio", shed_ratio, "ratio");
    report.metric("serving.demoted", demoted, "count");
    report.metric("serving.queue_high_water", queue_high_water, "count");
    report.metric("serving.wait_ticks_p99", wait_ticks_p99, "ticks");
    report.metric("xai.shap_model_evals", shap_evals, "count");
    report.metric("harness.bookkeeping_us", bookkeeping_us, "us");
    report.metric("trace_overhead_pct", overhead_pct, "%");
    report.metric("trace_coverage_pct", coverage_pct, "%");
  }
};

double coverage_pct(const LayerTotals& totals) {
  if (totals.root_ns == 0) return 0.0;
  return 100.0 *
         static_cast<double>(totals.root_ns - totals.self(Layer::kDecision)) /
         static_cast<double>(totals.root_ns);
}

double overhead_pct(const std::vector<double>& untraced_s,
                    const std::vector<double>& traced_s) {
  return (median(traced_s) / median(untraced_s) - 1.0) * 100.0;
}

/// Best host time per decision (or per control), indexed by its position in
/// the repetition, over the run's repetitions. Every repetition makes the
/// same decisions (the correctness gate checks it), so decision k's best
/// time is its own cost with the host's contention filtered out: the
/// reference host runs about 1.7x slower in spells of tens of milliseconds
/// to minutes, and any figure that averages over them moves with their
/// share of the run. A decision that is slow in every repetition stays
/// slow. Memory is one time per decision.
class BestTimes {
 public:
  /// False, and nothing added, when `samples` does not hold one time per
  /// decision of the first repetition.
  [[nodiscard]] bool add(const std::vector<std::int64_t>& samples) {
    if (repetitions_ == 0) best_ = samples;
    if (samples.size() != best_.size()) return false;
    for (std::size_t k = 0; k < samples.size(); ++k) {
      best_[k] = std::min(best_[k], samples[k]);
    }
    ++repetitions_;
    return true;
  }

  /// The `pct` percentile over decisions of their best time, in µs.
  [[nodiscard]] double percentile_us(int pct) const {
    return static_cast<double>(percentile(best_, pct)) / 1e3;
  }

  [[nodiscard]] std::int64_t total_ns() const {
    std::int64_t total = 0;
    for (const std::int64_t t : best_) total += t;
    return total;
  }

 private:
  std::vector<std::int64_t> best_;
  std::size_t repetitions_ = 0;
};

/// What the timed repetitions (episodes or replay passes) contribute to
/// the end-to-end metrics. A repetition's wall time is its decision
/// periods plus the rest (pipeline construction, the final drain, a
/// replay's parse), and each part is taken at its best.
struct Samples {
  std::vector<double> wall_s;
  BestTimes decision;
  BestTimes control;
  std::int64_t best_rest_ns = 0;
  // Per repetition; the correctness gate checks they repeat.
  double decisions = 0;
  double explanations = 0;
  double frames = 0;

  /// False when the repetition did not time as many decisions and
  /// controls as the first.
  [[nodiscard]] bool add(std::int64_t wall_ns, std::size_t decisions_made,
                         std::size_t explanations_made,
                         std::size_t frames_moved,
                         const std::vector<std::int64_t>& decision_ns,
                         const std::vector<std::int64_t>& control_ns) {
    std::int64_t rest = wall_ns;
    for (const std::int64_t t : decision_ns) rest -= t;
    if (wall_s.empty() || rest < best_rest_ns) best_rest_ns = rest;
    if (wall_s.empty()) {
      decisions = static_cast<double>(decisions_made);
      explanations = static_cast<double>(explanations_made);
      frames = static_cast<double>(frames_moved);
    }
    wall_s.push_back(static_cast<double>(wall_ns) / 1e9);
    const bool decisions_timed = decision.add(decision_ns);
    const bool controls_timed = control.add(control_ns);
    return decisions_timed && controls_timed;
  }

  /// `count` per second of one repetition made of its best parts.
  [[nodiscard]] double rate(double count) const {
    const std::int64_t best_wall_ns = decision.total_ns() + best_rest_ns;
    return best_wall_ns <= 0 ? 0.0
                             : count / (static_cast<double>(best_wall_ns) / 1e9);
  }
};

void emit_end_to_end(Report& report, const std::vector<Setup>& setups,
                     const Samples& samples, double exact_share,
                     double synthesis, double peak_rss) {
  report_setup(report, setups, false);
  report.metric("decisions_per_s", samples.rate(samples.decisions), "1/s");
  report.metric("decision_p50_us", samples.decision.percentile_us(50), "us");
  report.metric("explanations_per_s", samples.rate(samples.explanations),
                "1/s");
  report.metric("exact_share", exact_share, "ratio");
  report.metric("synthesis_ms", synthesis, "ms");
  report.metric("replay_frames_per_s", samples.rate(samples.frames), "1/s");
  report.metric("peak_rss_mb", peak_rss, "MB");
  std::fprintf(stderr, "perfbench: %zu repetitions\n", samples.wall_s.size());
}

/// Latencies too host-dependent to carry a bound (see README.md) come with
/// the traced report, from the run's untraced repetitions.
void emit_unbounded_latencies(Report& report, const Samples& untraced) {
  report.metric("decision_p99_us", untraced.decision.percentile_us(99), "us");
  report.metric("control_path_p50_us", untraced.control.percentile_us(50),
                "us");
  report.metric("control_path_p99_us", untraced.control.percentile_us(99),
                "us");
}

// --- closed-loop workloads --------------------------------------------------

int run_loop(const Args& args) {
  const bool serving = args.workload == "loop_serve";
  const std::size_t decisions = serving ? kServeDecisions : kSteerDecisions;
  const netsim::ScenarioConfig scenario = trf1_scenario(args.seed);
  const harness::ExperimentOptions options =
      serving ? serve_options(decisions, args.seed)
              : steer_options(decisions, args.seed);
  Report report;

  // Set-up: load the cached system, build a pipeline and warm it (thread
  // pool, thread-local GEMM scratch, SHAP probe scratch) with a short run.
  auto set_up = [&](System& into) {
    into = System{};
    Setup setup;
    const std::int64_t start = now_ns();
    into = load_system();
    const std::int64_t loaded = now_ns();
    harness::ExperimentOptions warm = options;
    warm.decisions = kWarmDecisions;
    (void)run_episode(into, scenario, warm, nullptr);
    setup.load_s = seconds_between(start, loaded);
    setup.pipeline_s = seconds_between(loaded, now_ns());
    return setup;
  };
  System system;
  std::vector<Setup> setups{set_up(system)};
  auto another_set_up = [&] { return set_up(system); };
  SynthesisTimer synthesis;

  // Timed phase. Every episode is checked against the first one as it
  // finishes; only its timings are kept.
  std::optional<EpisodeResult> first;
  std::optional<EpisodeResult> last_traced;
  Samples untraced;
  std::vector<double> traced_s;
  LayerTotals layers;
  double netsim_ns = 0;
  double traced_windows = 0;
  double traced_decisions = 0;
  double traced_deliveries = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tracer last_tracer;
  measure(args.seconds, args.trace ? 2 : 1, [&](std::size_t i) {
    const bool trace = args.trace && i % 2 == 1;
    std::optional<Tracer> tracer;
    if (trace) tracer.emplace();
    EpisodeResult e = run_episode(system, scenario, options,
                                  tracer.has_value() ? &*tracer : nullptr);
    attempted += e.decisions.size();
    failed += e.controls_rejected;
    if (e.serving.has_value()) {
      const harness::ServingTelemetry& s = *e.serving;
      report.check(s.stats.accepted == s.delivered + s.shed_notices,
                   "serving accepted == delivered + shed notices");
      attempted += s.stats.submitted;
      failed += s.stats.shed_total();
    }
    if (first.has_value()) {
      report.check_empty(compare_episodes(*first, e),
                         trace ? "traced vs untraced run" : "repeated run");
    }
    if (trace) {
      report.check(e.netsim_reports_match,
                   "fresh-gNB replay reproduces the repository's KPI reports");
      traced_s.push_back(static_cast<double>(e.wall_ns) / 1e9);
      layers.add(e.layers);
      netsim_ns += static_cast<double>(e.netsim_ns);
      traced_windows += static_cast<double>(e.windows);
      traced_decisions += static_cast<double>(e.decisions.size());
      traced_deliveries += static_cast<double>(e.deliveries);
      last_tracer = std::move(*tracer);
      last_traced = std::move(e);
      return;
    }
    report.check(
        untraced.add(e.wall_ns, e.decisions.size(),
                     e.serving.has_value() ? e.serving->delivered
                                           : e.explanations,
                     e.deliveries, e.decision_ns, e.control_path_ns),
        "every episode times the same decisions and controls");
    if (!first.has_value()) {
      first = std::move(e);
      synthesis.set_events(first->transitions);
    }
  }, [&](double progress, double wall_s) {
    if (!args.trace && synthesis.ready()) {
      synthesis.slice(wall_s * kSynthesisShare);
    }
    spread_setups(progress, setups, another_set_up);
  });
  spread_setups(1.0, setups, another_set_up);
  // Read before the reference run below adds its own memory.
  const double peak_rss = peak_rss_mb();
  log_walls("untraced episodes", untraced.wall_s);
  if (args.trace) log_walls("traced episodes", traced_s);

  // The composed loop must make run_experiment's decisions.
  {
    telemetry::ScopedRegistry registry;
    const harness::ExperimentResult reference = harness::run_experiment(
        system.trained, scenario, options, system.training);
    report.check_empty(compare_streams(*first, reference),
                       "composed loop vs harness::run_experiment");
  }
  report.check(first->control_path_ns.size() + 1 >= first->decisions.size(),
               "every decision's control reached the E2 termination");

  if (!args.trace) {
    double exact_share = first->ladder_exact ? 1.0 : 0.0;
    if (first->serving.has_value()) {
      const harness::ServingTelemetry& s = *first->serving;
      const auto exact = s.stats.served_by_tier[static_cast<std::size_t>(
          xai::serving::Tier::kExact)];
      exact_share = s.delivered == 0 ? 0.0
                                     : static_cast<double>(exact) /
                                           static_cast<double>(s.delivered);
    }
    emit_end_to_end(report, setups, untraced, exact_share,
                    synthesis.finish(report), peak_rss);
    report.print(attempted, failed);
    return report.correct() ? 0 : 1;
  }

  const EpisodeResult& t = *last_traced;
  LayerReport out;
  out.netsim_window_us = netsim_ns / 1e3 / traced_windows;
  out.netsim_windows = static_cast<double>(t.windows);
  out.route_us =
      (static_cast<double>(layers.self(Layer::kWindow)) - netsim_ns) / 1e3 /
      traced_windows;
  out.deliveries = traced_deliveries / traced_decisions;
  out.repo_us = layers.mean_us(Layer::kRepo);
  out.apply_us = layers.mean_us(Layer::kE2termApply);
  out.decide_us = layers.mean_us(Layer::kDrlDecide);
  out.ingest_us = layers.mean_us(Layer::kDrlIngest);
  out.kpm_us = layers.mean_us(Layer::kExploraKpm);
  out.control_us = layers.mean_us(Layer::kExploraControl);
  out.graph_nodes = static_cast<double>(t.graph_nodes);
  out.transitions = static_cast<double>(t.transitions.size());
  out.replaced_per_decision = static_cast<double>(t.controls_replaced) /
                              static_cast<double>(t.decisions.size());
  out.bookkeeping_us = layers.mean_us(Layer::kBookkeeping);
  if (t.serving.has_value()) {
    const ExplainService::Stats& s = t.serving->stats;
    auto tier = [&s](xai::serving::Tier which) {
      return static_cast<double>(
          s.served_by_tier[static_cast<std::size_t>(which)]);
    };
    out.submit_us = layers.mean_us(Layer::kServingSubmit);
    out.tick_busy_us = layers.mean_us(Layer::kServingTickBusy);
    out.tick_idle_us = layers.mean_us(Layer::kServingTickIdle);
    out.served[0] = tier(xai::serving::Tier::kExact);
    out.served[1] = tier(xai::serving::Tier::kSampled);
    out.served[2] = tier(xai::serving::Tier::kCached);
    for (std::size_t r = 0; r < 4; ++r) {
      out.shed[r] = static_cast<double>(s.shed_by_reason[r + 1]);
    }
    out.shed_ratio = s.submitted == 0 ? 0.0
                                      : static_cast<double>(s.shed_total()) /
                                            static_cast<double>(s.submitted);
    out.demoted = static_cast<double>(s.demoted_requests);
    out.queue_high_water = static_cast<double>(s.queue_high_water);
    out.wait_ticks_p99 =
        static_cast<double>(percentile(t.serving_latency_ticks, 99));
    out.shap_evals = t.shap_explanations == 0
                         ? 0.0
                         : static_cast<double>(t.shap_model_evals) /
                               static_cast<double>(t.shap_explanations);
  }
  out.overhead_pct = overhead_pct(untraced.wall_s, traced_s);
  out.coverage_pct = coverage_pct(layers);
  report.check(out.coverage_pct >= 95.0,
               "layer self times cover >= 95% of traced decision time");
  out.emit(report);
  emit_unbounded_latencies(report, untraced);
  report_setup(report, setups, true);
  if (!args.spans_dir.empty()) last_tracer.write_csv(spans_path(args));
  report.print(attempted, failed);
  return report.correct() ? 0 : 1;
}

// --- trace_replay -----------------------------------------------------------

int run_trace_replay(const Args& args) {
  const netsim::ScenarioConfig scenario = trf1_scenario(args.seed);
  const harness::ExperimentOptions options =
      steer_options(kTraceDecisions, args.seed);
  Report report;

  // Set-up: load the system, record a loop_steer-shaped run to an
  // in-memory .etrace (the wire-encode half), then one warm replay pass.
  auto set_up = [&](System& into, harness::RecordedRun& recorded_run) {
    into = System{};
    recorded_run = harness::RecordedRun{};
    Setup setup;
    const std::int64_t start = now_ns();
    into = load_system();
    const std::int64_t loaded = now_ns();
    recorded_run = harness::record_experiment(into.trained, scenario, options,
                                              into.training);
    const std::int64_t recorded = now_ns();
    (void)replay_pass(recorded_run.trace, recorded_run.xapp_name, options,
                      into.training, into.trained.profile, nullptr);
    setup.load_s = seconds_between(start, loaded);
    setup.record_s = seconds_between(loaded, recorded);
    setup.pipeline_s = seconds_between(recorded, now_ns());
    return setup;
  };
  System system;
  harness::RecordedRun live;
  std::vector<Setup> setups{set_up(system, live)};
  // Later set-ups re-record in place; each recording must repeat the
  // first byte for byte.
  const std::uint64_t trace_digest = fnv1a(live.trace);
  const std::uint64_t attribution_digest = live.attribution.digest;
  auto another_set_up = [&] {
    const Setup setup = set_up(system, live);
    report.check(fnv1a(live.trace) == trace_digest &&
                     live.attribution.digest == attribution_digest,
                 "set-ups record the same trace and attribution stream");
    return setup;
  };
  SynthesisTimer synthesis;

  // Each timed pass must reproduce the live explanation archive and
  // EXPLORA state, and replay as many frames as the first pass.
  std::optional<ReplayPass> first;
  Samples untraced;
  std::vector<double> traced_s;
  LayerTotals layers;
  double frames_parsed = 0;
  std::uint64_t attempted = 0;
  Tracer last_tracer;
  measure(args.seconds, args.trace ? 2 : 1, [&](std::size_t i) {
    const bool trace = args.trace && i % 2 == 1;
    std::optional<Tracer> tracer;
    if (trace) tracer.emplace();
    ReplayPass p = replay_pass(live.trace, live.xapp_name, options,
                               system.training, system.trained.profile,
                               tracer.has_value() ? &*tracer : nullptr);
    attempted += p.frames_replayed;
    report.check(!first.has_value() ||
                     p.frames_replayed == first->frames_replayed,
                 "pass replays every xApp frame");
    report.check(p.explanations == live.result.explanations &&
                     p.degradations == live.result.degradations,
                 "pass reproduces the live explanation archive");
    report.check(p.graph_nodes == live.result.graph.node_count() &&
                     p.graph_transitions ==
                         live.result.graph.total_transitions() &&
                     p.transitions.size() == live.result.transitions.size(),
                 "pass reproduces the live graph and transitions");
    if (trace) {
      traced_s.push_back(static_cast<double>(p.wall_ns) / 1e9);
      layers.add(p.layers);
      frames_parsed += static_cast<double>(p.frames_parsed);
      last_tracer = std::move(*tracer);
      return;
    }
    report.check(untraced.add(p.wall_ns, p.controls, p.explanations.size(),
                              p.frames_replayed, p.decision_ns,
                              p.control_path_ns),
                 "every pass times the same controls");
    if (!first.has_value()) {
      first = std::move(p);
      synthesis.set_events(first->transitions);
    }
  }, [&](double progress, double wall_s) {
    if (!args.trace && synthesis.ready()) {
      synthesis.slice(wall_s * kSynthesisShare);
    }
    spread_setups(progress, setups, another_set_up);
  });
  spread_setups(1.0, setups, another_set_up);
  // Read before the reference replay below adds its own memory.
  const double peak_rss = peak_rss_mb();
  log_walls("untraced passes", untraced.wall_s);
  if (args.trace) log_walls("traced passes", traced_s);

  // The repository's own replay must reproduce the live attribution
  // stream byte for byte, over the frames every pass replayed.
  {
    const harness::ReplayOutcome outcome = harness::replay_trace(
        oran::TraceReplaySource::parse(live.trace), live.xapp_name, options,
        system.trained.profile, system.training);
    report.check(outcome.attribution == live.attribution,
                 "replayed attribution stream is byte-identical to the live one");
    report.check(first->frames_replayed == outcome.frames_delivered,
                 "passes replay every xApp frame harness::replay_trace does");
  }

  if (!args.trace) {
    emit_end_to_end(report, setups, untraced,
                    first->ladder_exact ? 1.0 : 0.0,
                    synthesis.finish(report), peak_rss);
    report.print(attempted, 0);
    return report.correct() ? 0 : 1;
  }

  double replaced = 0;
  for (const auto& record : live.result.explanations) replaced += record.replaced;
  LayerReport out;
  out.parse_us = static_cast<double>(layers.self(Layer::kTraceParse)) / 1e3 /
                 frames_parsed;
  out.decode_us = layers.mean_us(Layer::kReplayDecode);
  out.trace_bytes = static_cast<double>(live.trace.size());
  out.kpm_us = layers.mean_us(Layer::kExploraKpm);
  out.control_us = layers.mean_us(Layer::kExploraControl);
  out.graph_nodes = static_cast<double>(live.result.graph.node_count());
  out.transitions = static_cast<double>(live.result.transitions.size());
  out.replaced_per_decision =
      replaced / static_cast<double>(live.result.explanations.size());
  out.overhead_pct = overhead_pct(untraced.wall_s, traced_s);
  out.coverage_pct = coverage_pct(layers);
  report.check(out.coverage_pct >= 95.0,
               "layer self times cover >= 95% of traced replay time");
  out.emit(report);
  emit_unbounded_latencies(report, untraced);
  report_setup(report, setups, true);
  if (!args.spans_dir.empty()) last_tracer.write_csv(spans_path(args));
  report.print(attempted, 0);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  try {
    if (args.train) {
      (void)load_system();
      return 0;
    }
    print_fingerprint(args);
    return args.workload == "trace_replay" ? run_trace_replay(args)
                                           : run_loop(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
