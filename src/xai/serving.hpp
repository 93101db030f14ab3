// Overload-robust explanation serving substrate (DESIGN.md §12): the
// deterministic building blocks the explanation-as-a-service layer
// (explora/explain_service) composes in front of the explainers.
//
//   - BoundedRequestQueue: a fixed-capacity FIFO ring. Admission is
//     try_push — it either fills a pre-sized slot or reports "full";
//     nothing ever grows, blocks or locks, so the enqueue path passes the
//     allocation gate over the hot paths. Like the service that
//     owns it, the ring is single-threaded: the tick-clocked serving loop
//     is its only producer and consumer.
//   - DegradationLadder: one hysteresis state machine over the serving
//     tiers exact → sampled → surrogate → cached, driven by an integer
//     fixed-point pressure EWMA, unified with the staleness watchdog
//     (record_gap/record_clean) and the circuit breaker
//     (set_model_available) so every consumer agrees on ONE active tier.
//   - CircuitBreaker: tick-clocked closed → open → half-open protection
//     of the model-eval path; consecutive eval failures/timeouts trip it,
//     tick-based probes close it.
//
// Determinism contract: every clock in this file is a simulation tick
// (std::int64_t) supplied by the caller, every threshold is an integer,
// and nothing here consults wall time or unseeded randomness — two runs
// that feed the same tick/pressure/outcome sequence traverse exactly the
// same states, on any machine and for any EXPLORA_THREADS.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"

namespace explora::xai::serving {

/// Serving clock: an abstract simulation tick (the gNB TTI in closed-loop
/// deployments, a bench-defined step in bench_serving). Deliberately not
/// netsim::Tick — xai sits below netsim in the module DAG.
using Tick = std::int64_t;

// ---------------------------------------------------------------------------
// Tiers and shed reasons
// ---------------------------------------------------------------------------

/// The degradation ladder, cheapest last. Order is meaningful: demotion
/// moves to a strictly higher enum value, and per-tier cost estimates are
/// strictly decreasing along it.
enum class Tier : std::uint8_t {
  kExact = 0,      ///< exact KernelSHAP (2^k coalitions)
  kSampled = 1,    ///< sampled SHAP (budgeted permutations)
  kSurrogate = 2,  ///< distilled-tree surrogate attribution
  kCached = 3,     ///< last-good attribution, no fresh computation
};
inline constexpr std::size_t kNumTiers = 4;

[[nodiscard]] std::string_view to_string(Tier tier) noexcept;

/// Why a request was refused (at admission) or shed (at dispatch) without
/// any explanation work being done.
enum class ShedReason : std::uint8_t {
  kNone = 0,               ///< not shed — the request was served
  kQueueFull = 1,          ///< ring at capacity
  kInFlightBudget = 2,     ///< queued + executing budget exceeded
  kDeadlineInfeasible = 3, ///< no tier's worst-case cost fits the budget
  kNoCachedResult = 4,     ///< demoted to kCached but nothing cached yet
};

[[nodiscard]] std::string_view to_string(ShedReason reason) noexcept;

// ---------------------------------------------------------------------------
// Bounded request queue
// ---------------------------------------------------------------------------

/// One queued explanation request. The feature vector lives in a slot
/// pre-sized at queue construction, so moving a request through the ring
/// never allocates; `context` is an opaque fixed-size payload the service
/// layer uses to rebind the model (e.g. the chosen action's head indices).
struct Request {
  std::uint64_t id = 0;
  std::uint32_t output_index = 0;
  Tick submitted = 0;
  Tick deadline = 0;  ///< absolute tick the result must be delivered by
  std::array<std::uint32_t, 8> context{};
  std::vector<double> x;
};

/// Fixed-capacity FIFO ring buffer. Capacity is rounded up to a power of
/// two (minimum 2); every slot's feature vector is sized once at
/// construction, so try_push/try_pop never allocate, lock or block — the
/// admission path of the serving layer is built on exactly these two calls.
/// Not thread-safe: one thread pushes and pops (the serving loop).
class BoundedRequestQueue {
 public:
  /// @param capacity requested depth bound (rounded up to a power of two).
  /// @param feature_dim dimension every pushed feature vector must have.
  BoundedRequestQueue(std::size_t capacity, std::size_t feature_dim);

  BoundedRequestQueue(const BoundedRequestQueue&) = delete;
  BoundedRequestQueue& operator=(const BoundedRequestQueue&) = delete;

  /// Admission: copies the request into the tail slot. Returns false when
  /// the ring is full. Never allocates, locks or blocks.
  bool try_push(std::uint64_t id, std::uint32_t output_index,
                std::span<const std::uint32_t> context, Tick submitted,
                Tick deadline, std::span<const double> x) noexcept;

  /// Dequeue into caller-owned storage. `out.x` must already have
  /// feature_dim() elements (pre-size it once). Returns false when empty.
  bool try_pop(Request& out) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t feature_dim() const noexcept {
    return feature_dim_;
  }
  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }
  /// Deepest depth() ever reached right after a successful push.
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  std::size_t feature_dim_;
  std::vector<Request> slots_;
  std::size_t head_ = 0;  ///< slot index of the oldest request
  std::size_t depth_ = 0;
  std::size_t high_water_ = 0;
};

// ---------------------------------------------------------------------------
// Degradation ladder
// ---------------------------------------------------------------------------

/// Fixed-point scale of the pressure EWMA (x16: four fractional bits).
inline constexpr std::int64_t kPressureScale = 16;

struct LadderConfig {
  /// While at tier t, a pressure EWMA at or above demote_above[t] (scaled
  /// by kPressureScale) for demote_streak consecutive observations demotes
  /// to t+1. The last entry is never reached (kCached cannot demote).
  std::array<std::int64_t, kNumTiers> demote_above{
      6 * kPressureScale, 12 * kPressureScale, 24 * kPressureScale,
      std::numeric_limits<std::int64_t>::max()};
  /// While at tier t, an EWMA at or below promote_below[t] for
  /// promote_streak observations promotes to t-1. promote_below[t] <
  /// demote_above[t-1] keeps a hysteresis band between the two edges so a
  /// tier cannot oscillate on a load level sitting between them. The
  /// first entry is unused (kExact cannot promote).
  std::array<std::int64_t, kNumTiers> promote_below{
      0, 2 * kPressureScale, 5 * kPressureScale, 10 * kPressureScale};
  /// Consecutive out-of-band observations required to move (hysteresis in
  /// time, on top of the threshold band): a single-sample spike never
  /// flips the tier while demote_streak > 1.
  int demote_streak = 2;
  int promote_streak = 4;
  /// EWMA smoothing: ewma += (sample - ewma) >> ewma_shift. Integer
  /// arithmetic only — bit-identical across platforms.
  int ewma_shift = 2;
  /// Consecutive clean (in-sequence) telemetry reports required to leave
  /// staleness; mirrors the PR-3 watchdog's recovery_reports.
  std::size_t recovery_clean_reports = 10;
};

/// The single degradation state machine shared by the staleness watchdog
/// (PR 3) and the serving tier ladder: one active tier, three inputs.
///
///   - load axis: observe_pressure() maintains the EWMA and walks the
///     hysteresis tier (load_tier()) one rung at a time;
///   - staleness axis: record_gap()/record_clean() implement the KPM
///     watchdog quarantine — while stale() the active tier is pinned to
///     kCached because every fresher tier would attribute a gapped
///     snapshot;
///   - breaker axis: set_model_available(false) floors the active tier at
///     kSurrogate (the model-eval path is fused off).
///
/// active_tier() is the max (cheapest) of the three axes, so recovery
/// clean-streak accounting and serving-tier hysteresis can never disagree
/// about the tier actually served — there is only one tier.
class DegradationLadder {
 public:
  enum class Trigger : std::uint8_t {
    kLoad = 0,      ///< pressure EWMA crossed a hysteresis edge
    kStaleGap = 1,  ///< telemetry gap detected (watchdog)
    kRecovery = 2,  ///< clean-streak target reached
    kBreaker = 3,   ///< model-eval circuit breaker opened/closed
  };

  struct Transition {
    Tick at = 0;
    Tier from = Tier::kExact;
    Tier to = Tier::kExact;
    Trigger trigger = Trigger::kLoad;
  };

  /// Observer for active-tier changes (the xApp archives these as
  /// DegradationRecords). Fired only when the *active* tier changes.
  using TransitionHook = std::function<void(const Transition&)>;

  DegradationLadder();
  explicit DegradationLadder(LadderConfig config);

  void set_transition_hook(TransitionHook hook) {
    on_transition_ = std::move(hook);
  }

  /// Feeds one load observation (queue depth + busy workers) at `now`.
  void observe_pressure(std::int64_t pressure, Tick now);

  /// Staleness watchdog inputs. record_clean returns true exactly when
  /// this report completes the recovery streak (stale just cleared).
  void record_gap(Tick now);
  [[nodiscard]] bool record_clean(Tick now);

  /// Breaker input: false pins the active tier at kSurrogate or below.
  void set_model_available(bool available, Tick now);

  [[nodiscard]] bool stale() const noexcept { return stale_; }
  [[nodiscard]] std::size_t clean_streak() const noexcept {
    return clean_streak_;
  }
  [[nodiscard]] bool model_available() const noexcept {
    return model_available_;
  }
  /// The hysteresis (load-only) tier.
  [[nodiscard]] Tier load_tier() const noexcept { return load_tier_; }
  /// The one true tier: max of the load tier, the staleness floor
  /// (kCached) and the breaker floor (kSurrogate).
  [[nodiscard]] Tier active_tier() const noexcept;
  /// Pressure EWMA in kPressureScale fixed point (diagnostics/tests).
  [[nodiscard]] std::int64_t pressure_ewma() const noexcept { return ewma_; }

  [[nodiscard]] std::uint64_t demotions() const noexcept {
    return demotions_;
  }
  [[nodiscard]] std::uint64_t promotions() const noexcept {
    return promotions_;
  }
  [[nodiscard]] const LadderConfig& config() const noexcept {
    return config_;
  }

 private:
  void step_load_tier(Tick now);
  void emit(Tier from, Tier to, Trigger trigger, Tick now);

  LadderConfig config_;
  std::int64_t ewma_ = 0;
  int demote_run_ = 0;
  int promote_run_ = 0;
  Tier load_tier_ = Tier::kExact;
  bool stale_ = false;
  std::size_t clean_streak_ = 0;
  bool model_available_ = true;
  std::uint64_t demotions_ = 0;
  std::uint64_t promotions_ = 0;
  TransitionHook on_transition_;
};

[[nodiscard]] std::string_view to_string(DegradationLadder::Trigger trigger)
    noexcept;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

struct BreakerConfig {
  /// Consecutive model-eval failures (contract failure or timeout) that
  /// trip the breaker open.
  int failure_threshold = 3;
  /// Ticks the breaker stays open before admitting half-open probes.
  Tick open_ticks = 32;
  /// Consecutive half-open probe successes required to close again.
  int successes_to_close = 2;
  /// A model eval whose (simulated) cost exceeds this is a timeout
  /// failure. 0 disables timeout detection.
  Tick eval_timeout_ticks = 0;
};

/// Tick-clocked circuit breaker on the model-eval path. Deterministic by
/// construction: state changes happen only in record_success /
/// record_failure / on_tick, all driven by the caller's tick stream.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker() = default;
  explicit CircuitBreaker(BreakerConfig config) : config_(config) {}

  /// Advances open → half-open once the open window has elapsed.
  void on_tick(Tick now);
  /// True when a model eval may be attempted (closed, or probing).
  [[nodiscard]] bool allow_eval() const noexcept {
    return state_ != State::kOpen;
  }
  void record_success(Tick now);
  void record_failure(Tick now);

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t trips() const noexcept { return trips_; }
  [[nodiscard]] int consecutive_failures() const noexcept {
    return consecutive_failures_;
  }
  [[nodiscard]] const BreakerConfig& config() const noexcept {
    return config_;
  }

 private:
  BreakerConfig config_{};
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  Tick open_until_ = 0;
  std::uint64_t trips_ = 0;
};

[[nodiscard]] std::string_view to_string(CircuitBreaker::State state) noexcept;

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Worst-case per-tier cost estimates in ticks, strictly decreasing along
/// the ladder. cheapest_tier_fitting walks down from `floor` to the first
/// tier whose estimate fits the remaining budget (deadline-aware shedding
/// decides *before* any work is done).
struct CostModel {
  std::array<Tick, kNumTiers> worst_case{128, 32, 4, 1};

  [[nodiscard]] Tick cost(Tier tier) const noexcept {
    return worst_case[static_cast<std::size_t>(tier)];
  }
  /// First tier at or below `floor` whose worst case fits `budget`;
  /// nullopt-like sentinel: returns kNumTiers (cast) when nothing fits.
  [[nodiscard]] std::optional<Tier> cheapest_tier_fitting(
      Tick budget, Tier floor) const noexcept {
    for (std::size_t t = static_cast<std::size_t>(floor); t < kNumTiers;
         ++t) {
      if (worst_case[t] <= budget) return static_cast<Tier>(t);
    }
    return std::nullopt;
  }
};

}  // namespace explora::xai::serving
