// Deterministic observability layer: counters, gauges, fixed-bucket
// histograms and tick-clocked span statistics, collected in a thread-safe
// registry that snapshots to canonical sorted JSON.
//
// Determinism contract (the whole point of this layer): every recorded
// value is an *integer* in a simulation-defined unit — simulation ticks,
// dispatch rounds, PRBs, bytes, model evaluations — never wall-clock time.
// Aggregation is commutative (atomic adds, atomic min/max), so a snapshot
// taken after a run is bit-identical across repeat runs, across
// EXPLORA_THREADS values, and across machines, for fixed seeds. Wall
// clocks, floating-point accumulation and unordered-container iteration
// are banned here (enforced by tools/lint_determinism.py's telemetry-clock
// rule): any of them would make two identical runs disagree.
//
// One knob, mirroring common/contracts.hpp's compiled ceiling:
//
//   EXPLORA_TELEMETRY_LEVEL (macro, build time)
//     0 = off   every record method compiles to an empty inline body —
//               zero cost, no atomics touched (select with
//               -DEXPLORA_TELEMETRY=OFF at configure time);
//     1 = on    recording compiled in (the default).
//
// There is no runtime switch: the registry is the only count of the
// events it records (chaos verdicts read it), so nothing may silence it.
//
// Instrumented components resolve their metrics once, at construction,
// from active_registry() and keep raw pointers; the hot path is then a
// single relaxed atomic add. The active registry is per thread: a run
// (harness::run_experiment) or a test installs its own ScopedRegistry,
// which must outlive every component that resolved metrics from it, and
// runs on other threads never see it.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>


#ifndef EXPLORA_TELEMETRY_LEVEL
#define EXPLORA_TELEMETRY_LEVEL 1
#endif

namespace explora::telemetry {

/// True when recording is compiled in (EXPLORA_TELEMETRY_LEVEL >= 1).
/// Golden-trace tests skip themselves when the layer is compiled out.
inline constexpr bool kCompiledIn = EXPLORA_TELEMETRY_LEVEL >= 1;

// Every atomic in this layer is relaxed, and that is sound: each one is an
// order-free fold (adds, monotone min/max CAS) or a last-write level, none
// publishes other data through it, and readers tolerate staleness until
// the recorders have joined.

namespace detail {

inline void update_min(std::atomic<std::int64_t>& target,
                       std::int64_t value) noexcept {
  std::int64_t current = target.load(std::memory_order_relaxed);
  // Bounded monotone CAS: every retry means another thread already
  // tightened the bound, so iterations <= concurrent recorders.
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

inline void update_max(std::atomic<std::int64_t>& target,
                       std::int64_t value) noexcept {
  std::int64_t current = target.load(std::memory_order_relaxed);
  // Bounded monotone CAS: every retry means another thread already
  // tightened the bound, so iterations <= concurrent recorders.
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
  kSpan = 3,
};

[[nodiscard]] std::string_view to_string(MetricKind kind) noexcept;

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (queue depths, in-flight counts).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    value_.store(v, std::memory_order_relaxed);
#else
    (void)v;
#endif
  }
  void add(std::int64_t delta) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over integer values. Bucket i counts values
/// <= bounds[i] (first matching bound); one implicit overflow bucket
/// catches the rest. Tracks count, sum, min and max alongside. All
/// updates are commutative atomics, so concurrent observation from pool
/// workers yields the same snapshot as a serial run.
class Histogram {
 public:
  /// @param bounds strictly increasing upper bounds; at least one.
  explicit Histogram(std::span<const std::int64_t> bounds);

  void observe(std::int64_t value) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    detail::update_min(min_, value);
    detail::update_max(max_, value);
#else
    (void)value;
#endif
  }

  /// Folds a locally pre-aggregated batch in one shot. Hot paths that
  /// observe on a single thread can accumulate plain (non-atomic) bucket
  /// counts and flush at a coarser cadence — e.g. the per-TTI scheduler
  /// grants flushed once per report window. `bucket_counts` must have
  /// bounds().size() + 1 entries laid out like bucket_count(); min/max are
  /// ignored when `count` is 0. Commutative, like observe().
  void observe_batch(std::span<const std::uint64_t> bucket_counts,
                     std::uint64_t count, std::int64_t sum, std::int64_t min,
                     std::int64_t max) noexcept;

  [[nodiscard]] const std::vector<std::int64_t>& bounds() const noexcept {
    return bounds_;
  }
  /// Count in bucket `i` (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// min()/max() are 0 while count() == 0.
  [[nodiscard]] std::int64_t min() const noexcept;
  [[nodiscard]] std::int64_t max() const noexcept;

 private:
  [[nodiscard]] std::size_t bucket_index(std::int64_t value) const noexcept;

  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_;
  std::atomic<std::int64_t> max_;
};

/// Single-thread batching front end for a shared Histogram: observe() is
/// plain integer work (no atomics), flush() folds the accumulated window
/// into the histogram via observe_batch(). For hot paths owned by one
/// thread (the gNB's TTI loop) that flush at a coarser cadence, e.g. once
/// per report window. Unflushed observations are invisible to snapshots.
class LocalHistogram {
 public:
  LocalHistogram() = default;
  explicit LocalHistogram(Histogram* target)
      : target_(target),
        window_buckets_(target != nullptr ? target->bounds().size() + 1 : 0,
                        0) {}

  void observe(std::int64_t value) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    const auto& bounds = target_->bounds();
    std::size_t bucket = 0;
    while (bucket < bounds.size() && value > bounds[bucket]) ++bucket;
    ++window_buckets_[bucket];
    ++window_count_;
    window_sum_ += value;
    if (value < window_min_) window_min_ = value;
    if (value > window_max_) window_max_ = value;
#else
    (void)value;
#endif
  }

  void flush() noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    if (window_count_ == 0) return;
    target_->observe_batch(window_buckets_, window_count_, window_sum_,
                           window_min_, window_max_);
    for (auto& bucket : window_buckets_) bucket = 0;
    window_count_ = 0;
    window_sum_ = 0;
    window_min_ = std::numeric_limits<std::int64_t>::max();
    window_max_ = std::numeric_limits<std::int64_t>::min();
#endif
  }

  [[nodiscard]] std::uint64_t pending() const noexcept {
    return window_count_;
  }

 private:
  // The window_* members are this thread's plain (non-atomic) batch.
  Histogram* target_ = nullptr;
  std::vector<std::uint64_t> window_buckets_;
  std::uint64_t window_count_ = 0;
  std::int64_t window_sum_ = 0;
  std::int64_t window_min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t window_max_ = std::numeric_limits<std::int64_t>::min();
};

/// Aggregated integer-duration statistic (simulation ticks, dispatch
/// rounds, model evaluations — never wall-clock). count/total/min/max.
class SpanStat {
 public:
  void record(std::int64_t duration) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
    count_.fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(duration, std::memory_order_relaxed);
    detail::update_min(min_, duration);
    detail::update_max(max_, duration);
#else
    (void)duration;
#endif
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t total() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }
  /// min()/max() are 0 while count() == 0.
  [[nodiscard]] std::int64_t min() const noexcept;
  [[nodiscard]] std::int64_t max() const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> total_{0};
  // Sentinels so the first record() always wins both CAS races.
  std::atomic<std::int64_t> min_{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{
      std::numeric_limits<std::int64_t>::min()};
};

/// One metric frozen at snapshot time. Plain data, so snapshots can be
/// stored and diffed without touching the live registry.
struct MetricSnapshot {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;   ///< counter value / histogram / span count
  std::int64_t value = 0;    ///< gauge level
  std::int64_t sum = 0;      ///< histogram sum / span total
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<std::int64_t> bounds;      ///< histogram upper bounds
  std::vector<std::uint64_t> buckets;    ///< bounds.size() + 1 entries

  friend bool operator==(const MetricSnapshot&,
                         const MetricSnapshot&) = default;
};

/// Full registry state at one instant, keyed by metric name (sorted — the
/// canonical order the JSON document uses).
struct TelemetrySnapshot {
  std::int64_t now = 0;  ///< registry tick clock at snapshot time
  std::map<std::string, MetricSnapshot, std::less<>> metrics;

  /// The value of the named counter. An unknown name or a metric of
  /// another kind is a contract violation, so a misspelt name cannot
  /// read as 0.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Canonical JSON: sorted metric names, fixed key order, integers only.
  /// Byte-identical for equal snapshots on every platform.
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const TelemetrySnapshot&,
                         const TelemetrySnapshot&) = default;
};

class Registry {
 public:
  // Both out of line: Entry is incomplete here, and the map of
  // unique_ptr<Entry> needs its destructor instantiated by both.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named metric. Names are dot-namespaced per
  /// subsystem ("oran.rmr.delivered"). Re-requesting an existing name
  /// returns the same object; requesting it as a different kind (or a
  /// histogram with different bounds) is a contract violation. Returned
  /// references stay valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const std::int64_t> bounds);
  [[nodiscard]] SpanStat& span(std::string_view name);

  /// The registry's simulation-tick clock, advanced by the component that
  /// owns simulated time (the gNB). ScopedSpan reads it at entry and exit.
  void set_now(std::int64_t tick) noexcept {
    now_.store(tick, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t now() const noexcept {
    return now_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] TelemetrySnapshot snapshot() const;
  /// snapshot().to_json() in one call.
  [[nodiscard]] std::string snapshot_json() const;

  /// Number of registered metrics.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry;

  [[nodiscard]] Entry& find_or_create(std::string_view name, MetricKind kind,
                                      std::span<const std::int64_t> bounds);

  // Writers (metric creation) are rare and front-loaded; snapshots and
  // size() read shared.
  mutable std::shared_mutex mutex_;  ///< guards metrics_
  std::map<std::string, std::unique_ptr<Entry>, std::less<>> metrics_;
  // Tick clock: one writer, racy readers tolerate a stale tick.
  std::atomic<std::int64_t> now_{0};
};

/// The process-wide default registry.
[[nodiscard]] Registry& global_registry();

/// The registry instrumented components resolve metrics from: the calling
/// thread's innermost ScopedRegistry, or the global one when the thread
/// has none.
[[nodiscard]] Registry& active_registry() noexcept;

/// RAII redirection of the calling thread's active_registry() to a fresh
/// or caller-owned registry. Components constructed inside the scope on
/// this thread bind their metrics to it, so a run or a test observes only
/// its own pipeline, whatever other threads install. The scoped registry
/// must outlive every component that bound to it.
class ScopedRegistry {
 public:
  /// Activates a fresh, internally-owned registry.
  ScopedRegistry();
  /// Activates `registry` (caller-owned).
  explicit ScopedRegistry(Registry& registry);
  ~ScopedRegistry();
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

  [[nodiscard]] Registry& registry() noexcept { return *active_; }

 private:
  std::unique_ptr<Registry> owned_;
  Registry* active_;
  Registry* previous_;
};

/// Name-prefix helper for per-subsystem namespacing: Scope("oran.rmr")
/// resolves "delivered" as "oran.rmr.delivered" against a registry.
class Scope {
 public:
  explicit Scope(std::string prefix, Registry* registry = nullptr)
      : prefix_(std::move(prefix)),
        registry_(registry != nullptr ? registry : &active_registry()) {}

  [[nodiscard]] Counter& counter(std::string_view name) {
    return registry_->counter(qualified(name));
  }
  [[nodiscard]] Gauge& gauge(std::string_view name) {
    return registry_->gauge(qualified(name));
  }
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::span<const std::int64_t> bounds) {
    return registry_->histogram(qualified(name), bounds);
  }
  [[nodiscard]] SpanStat& span(std::string_view name) {
    return registry_->span(qualified(name));
  }
  [[nodiscard]] Registry& registry() noexcept { return *registry_; }

 private:
  [[nodiscard]] std::string qualified(std::string_view name) const {
    std::string full;
    full.reserve(prefix_.size() + 1 + name.size());
    full += prefix_;
    full += '.';
    full += name;
    return full;
  }

  std::string prefix_;
  Registry* registry_;
};

/// RAII span clocked by a registry's tick clock: records now() - start
/// into `stat` on destruction, and maintains a per-thread nesting depth so
/// tests can assert well-formed (properly bracketed) span nesting.
class ScopedSpan {
 public:
  ScopedSpan(SpanStat& stat, const Registry& registry) noexcept
      : stat_(&stat), registry_(&registry), start_(registry.now()) {
    ++thread_depth();
  }
  ~ScopedSpan() {
    --thread_depth();
    stat_->record(registry_->now() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Open ScopedSpans on the calling thread (0 = balanced).
  [[nodiscard]] static int depth() noexcept { return thread_depth(); }

 private:
  [[nodiscard]] static int& thread_depth() noexcept {
    thread_local int depth = 0;
    return depth;
  }

  SpanStat* stat_;
  const Registry* registry_;
  std::int64_t start_;
};

}  // namespace explora::telemetry
