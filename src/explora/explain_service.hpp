// Explanation-as-a-service in front of the XAI explainers (DESIGN.md §12):
// an overload-robust serving layer. It composes the xai::serving substrate — bounded admission queue,
// degradation ladder, circuit breaker, per-tier cost model — around the
// actual explainers:
//
//   tier kExact     exact KernelSHAP over head_probability_model
//   tier kSampled   sampled SHAP (budgeted permutations)
//   tier kSurrogate distilled-tree path attribution (no model evals)
//   tier kCached    last-good attribution for that output head
//
// The service is tick-clocked: submit() admits (or sheds, with a reason)
// at the caller's tick, on_tick() dispatches queued requests onto a fixed
// number of simulated worker slots and delivers results when each
// request's simulated tier cost has elapsed. Attribution values are
// computed at dispatch (so they are always a function of the request
// snapshot, never of later state) but delivered at the finish tick.
// Latency is therefore the *simulated* cost model, and the whole
// admission/shed/demote/complete decision stream is byte-identical across
// runs, hosts and EXPLORA_THREADS — the wall-clock speed of the explainers
// never feeds back into any decision.
//
// Fault injection (for the chaos sweep's slow-explainer impairment and
// the breaker path) draws from a named RNG fork, so fault sequences are
// part of the deterministic stream too.
//
// The two SHAP tiers share work through a small FIFO memo of full
// explain_all_outputs tables keyed by (bits of x, chosen action, tier):
// requests for different heads of the same snapshot read rows of one
// table instead of each recomputing it, and a sampled table reads its
// coalition values from a resident exact entry of the same snapshot
// instead of re-running the model (DESIGN.md §12.5). The lookup runs
// after the fault draws and breaker accounting, and a memo hit returns
// the bytes a fresh explainer would, so the decision stream is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "ml/agent.hpp"
#include "ml/features.hpp"
#include "xai/serving.hpp"
#include "xai/tree.hpp"

namespace explora {

/// One delivered explanation (or a shed notice: tier/attribution empty
/// when `shed_reason != kNone`).
struct ExplanationResult {
  std::uint64_t id = 0;
  std::uint32_t output_index = 0;
  xai::serving::Tier tier = xai::serving::Tier::kExact;
  xai::serving::ShedReason shed_reason = xai::serving::ShedReason::kNone;
  xai::serving::Tick submitted = 0;
  xai::serving::Tick completed = 0;
  /// completed - submitted for served requests; 0 for shed ones.
  xai::serving::Tick latency = 0;
  /// True when the request was served below the tier admission asked for
  /// (ladder demotion, deadline walk-down, or eval-fault fallback).
  bool degraded = false;
  /// True when the attribution came from a stale cache entry (kCached).
  bool from_cache = false;
  std::vector<double> attribution;
};

/// Deterministic explanation-serving layer. Single-threaded by contract:
/// submit() and on_tick() must be called from the driving (simulation)
/// thread, and the underlying queue is a plain single-threaded ring.
/// submit() itself is nonblocking and allocation-free — it is the path a
/// TTI loop may call.
class ExplainService {
 public:
  struct Config {
    /// Admission bound: requests queued at once (rounded up to pow2).
    std::size_t queue_capacity = 64;
    /// Admission bound: queued + executing; 0 = queue capacity + workers.
    std::size_t in_flight_budget = 0;
    /// Simulated worker slots draining the queue each tick.
    std::size_t workers = 2;
    /// Worst-case per-tier cost in ticks (deadline feasibility + the
    /// simulated service time).
    xai::serving::CostModel costs{};
    /// Deadline granted to submit() calls that pass deadline = 0.
    xai::serving::Tick default_deadline = 192;
    /// SHAP budget of the sampled tier.
    std::size_t sampled_permutations = 24;
    /// Background rows per SHAP value (both SHAP tiers).
    std::size_t max_background = 16;
    std::uint64_t seed = 2027;
    /// Pool for SHAP fan-out; nullptr = global EXPLORA_THREADS pool.
    common::ThreadPool* pool = nullptr;
    xai::serving::LadderConfig ladder{};
    xai::serving::BreakerConfig breaker{};
    /// Fault injection on the model-eval tiers (exact/sampled):
    /// probability a dispatch's simulated cost is inflated slow_factor x,
    /// and probability an eval fails outright (breaker food).
    double eval_slow_probability = 0.0;
    xai::serving::Tick eval_slow_factor = 4;
    double eval_failure_probability = 0.0;
  };

  /// SHAP tables memoised FIFO (DESIGN.md §12.5). Two SHAP tiers x two
  /// workers covers the requests of one loop decision.
  static constexpr std::size_t kShapTableCapacity = 4;

  /// @param agent policy under explanation. It must outlive the service
  ///        and must not change while the service lives: memoised SHAP
  ///        tables are keyed by snapshot, action and tier, not by weights.
  /// @param background latent background rows for SHAP marginalization
  ///        (truncated to config.max_background).
  /// @param surrogate distilled tree for the surrogate tier; may be null
  ///        (the surrogate tier then falls through to cached).
  /// @param shared_ladder when non-null the service drives this ladder
  ///        (the xApp's single degradation state machine) instead of an
  ///        internally owned one; must outlive the service.
  ExplainService(const ml::PolicyAgent& agent,
                 std::vector<ml::Vector> background,
                 const xai::DecisionTreeClassifier* surrogate, Config config,
                 xai::serving::DegradationLadder* shared_ladder = nullptr);

  ExplainService(const ExplainService&) = delete;
  ExplainService& operator=(const ExplainService&) = delete;

  struct SubmitResult {
    bool accepted = false;
    std::uint64_t id = 0;
    xai::serving::ShedReason shed_reason = xai::serving::ShedReason::kNone;
  };

  /// Admission control. Never blocks, locks or allocates: the request
  /// either lands in a pre-sized queue slot or is rejected with a reason.
  /// @param x latent feature snapshot (dimension fixed at construction).
  /// @param output_index agent head to explain (< ml::kNumHeads).
  /// @param chosen the action whose head probabilities are explained.
  /// @param now current tick; @param deadline absolute tick budget
  ///        (0 = now + config.default_deadline).
  SubmitResult submit(std::span<const double> x, std::uint32_t output_index,
                      const ml::AgentAction& chosen, xai::serving::Tick now,
                      xai::serving::Tick deadline = 0);

  /// Advances the service clock: completes finished work, feeds the
  /// pressure EWMA, dispatches queued requests (deadline-aware walk-down
  /// or shed), and steps the breaker. Results for requests finishing at
  /// or before `now` are appended to the drain buffer in deterministic
  /// (finish tick, id) order.
  void on_tick(xai::serving::Tick now);

  /// Delivered results since the last drain (shed notices included, in
  /// decision order). Moves the buffer out.
  [[nodiscard]] std::vector<ExplanationResult> drain();

  /// Runs on_tick over (from, to] — convenience for window-grained hosts.
  void run_until(xai::serving::Tick from, xai::serving::Tick to) {
    for (xai::serving::Tick t = from + 1; t <= to; ++t) on_tick(t);
  }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::array<std::uint64_t, xai::serving::kNumTiers> served_by_tier{};
    std::array<std::uint64_t, 5> shed_by_reason{};  ///< by ShedReason
    std::uint64_t demoted_requests = 0;  ///< served below requested tier
    std::uint64_t eval_faults = 0;
    std::uint64_t breaker_trips = 0;
    std::size_t queue_high_water = 0;
    std::size_t queue_capacity = 0;

    [[nodiscard]] std::uint64_t shed_total() const noexcept {
      std::uint64_t total = 0;
      for (const auto n : shed_by_reason) total += n;
      return total;
    }
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const xai::serving::DegradationLadder& ladder() const {
    return *ladder_;
  }
  [[nodiscard]] const xai::serving::CircuitBreaker& breaker() const {
    return breaker_;
  }
  [[nodiscard]] const xai::serving::BoundedRequestQueue& queue() const {
    return queue_;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::size_t feature_dim() const {
    return queue_.feature_dim();
  }
  /// In-flight (executing) requests right now.
  [[nodiscard]] std::size_t busy_workers() const;

 private:
  struct InFlight {
    bool active = false;
    xai::serving::Request request;
    xai::serving::Tick finish = 0;
    xai::serving::Tier tier = xai::serving::Tier::kExact;
    bool degraded = false;
    bool from_cache = false;
    std::vector<double> attribution;
  };

  struct CacheEntry {
    bool valid = false;
    xai::serving::Tick at = 0;
    std::vector<double> attribution;
  };

  /// One memoised explain_all_outputs table; background, seed and
  /// permutation count are fixed per service, so they are not in the key.
  struct ShapTable {
    bool valid = false;
    std::vector<double> x;
    std::array<std::uint32_t, 8> context{};
    xai::serving::Tier tier = xai::serving::Tier::kExact;
    std::vector<ml::Vector> phi;  ///< [output][feature]
    /// Exact tier only: its coalition_table, v(S) at x (2^N x kNumHeads),
    /// which a sampled request for the same snapshot reads its
    /// permutation prefixes from.
    ml::Matrix values;
  };

  void complete_finished(xai::serving::Tick now);
  void dispatch_queued(xai::serving::Tick now);
  /// Computes the attribution for `slot` at its chosen tier; applies
  /// eval-fault injection and breaker accounting. May downgrade the
  /// slot's tier (fault fallback).
  void execute(InFlight& slot, xai::serving::Tick now);
  /// Row `request.output_index` of the request snapshot's SHAP table at
  /// `tier`, computed on a memo miss and stored FIFO. A sampled miss reads
  /// v(S) from a resident exact table of the same snapshot, if any.
  [[nodiscard]] std::vector<double> shap_attribution(
      const xai::serving::Request& request, xai::serving::Tier tier);
  /// The resident memo entry for the request's snapshot at `tier`, or null.
  [[nodiscard]] const ShapTable* find_shap_table(
      const xai::serving::Request& request, xai::serving::Tier tier) const;
  void shed(const xai::serving::Request& request,
            xai::serving::ShedReason reason, xai::serving::Tick now);

  const ml::PolicyAgent& agent_;
  std::vector<ml::Vector> background_;
  const xai::DecisionTreeClassifier* surrogate_;
  Config config_;
  xai::serving::BoundedRequestQueue queue_;
  std::unique_ptr<xai::serving::DegradationLadder> owned_ladder_;
  xai::serving::DegradationLadder* ladder_;
  xai::serving::CircuitBreaker breaker_;
  common::Rng fault_rng_;
  std::vector<InFlight> workers_;
  std::vector<CacheEntry> cache_;  ///< one last-good slot per output head
  std::array<ShapTable, kShapTableCapacity> shap_tables_{};
  std::size_t next_shap_table_ = 0;  ///< FIFO victim
  std::vector<ExplanationResult> drained_;
  std::vector<std::size_t> finished_scratch_;
  std::uint64_t next_id_ = 1;
  std::uint64_t last_breaker_trips_ = 0;

  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::array<std::uint64_t, xai::serving::kNumTiers> served_by_tier_{};
  std::array<std::uint64_t, 5> shed_by_reason_{};
  std::uint64_t demoted_requests_ = 0;
  std::uint64_t eval_faults_ = 0;

  // Telemetry (explora.serving.*), integer-only like everything else.
  telemetry::Counter* tm_submitted_;
  telemetry::Counter* tm_accepted_;
  std::array<telemetry::Counter*, xai::serving::kNumTiers> tm_served_;
  std::array<telemetry::Counter*, 5> tm_shed_;
  telemetry::Counter* tm_demotions_;
  telemetry::Counter* tm_eval_faults_;
  telemetry::Gauge* tm_breaker_state_;
  telemetry::Gauge* tm_active_tier_;
  telemetry::Gauge* tm_queue_depth_;
  std::array<telemetry::Histogram*, xai::serving::kNumTiers> tm_latency_;
};

}  // namespace explora
