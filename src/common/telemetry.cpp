#include "common/telemetry.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/contracts.hpp"

namespace explora::telemetry {

namespace {

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

void append_i64(std::string& out, std::int64_t v) { out += std::to_string(v); }

// Metric names come from instrumentation-site string literals, but escape
// anyway so a hostile name cannot break document structure.
void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

void append_metric(std::string& out, const MetricSnapshot& m) {
  out += "{\"type\": \"";
  out += to_string(m.kind);
  out += '"';
  switch (m.kind) {
    case MetricKind::kCounter:
      out += ", \"value\": ";
      append_u64(out, m.count);
      break;
    case MetricKind::kGauge:
      out += ", \"value\": ";
      append_i64(out, m.value);
      break;
    case MetricKind::kHistogram:
      out += ", \"count\": ";
      append_u64(out, m.count);
      out += ", \"sum\": ";
      append_i64(out, m.sum);
      out += ", \"min\": ";
      append_i64(out, m.min);
      out += ", \"max\": ";
      append_i64(out, m.max);
      out += ", \"buckets\": [";
      for (std::size_t i = 0; i < m.buckets.size(); ++i) {
        if (i > 0) out += ", ";
        out += "{\"le\": ";
        if (i < m.bounds.size()) {
          append_i64(out, m.bounds[i]);
        } else {
          out += "\"+inf\"";
        }
        out += ", \"count\": ";
        append_u64(out, m.buckets[i]);
        out += '}';
      }
      out += ']';
      break;
    case MetricKind::kSpan:
      out += ", \"count\": ";
      append_u64(out, m.count);
      out += ", \"total\": ";
      append_i64(out, m.sum);
      out += ", \"min\": ";
      append_i64(out, m.min);
      out += ", \"max\": ";
      append_i64(out, m.max);
      break;
  }
  out += '}';
}

}  // namespace

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
    case MetricKind::kSpan: return "span";
  }
  return "unknown";
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::span<const std::int64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      // Sentinels so the first observe() always wins both CAS races.
      min_(std::numeric_limits<std::int64_t>::max()),
      max_(std::numeric_limits<std::int64_t>::min()) {
  EXPLORA_EXPECTS_MSG(!bounds_.empty(),
                      "histogram needs at least one bucket bound");
  EXPLORA_EXPECTS_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                          std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                              bounds_.end(),
                      "histogram bounds must be strictly increasing");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe_batch(std::span<const std::uint64_t> bucket_counts,
                              std::uint64_t count, std::int64_t sum,
                              std::int64_t min, std::int64_t max) noexcept {
#if EXPLORA_TELEMETRY_LEVEL >= 1
  if (count == 0) return;
  EXPLORA_EXPECTS_MSG(bucket_counts.size() == bounds_.size() + 1,
                      "observe_batch needs {} bucket counts, got {}",
                      bounds_.size() + 1, bucket_counts.size());
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    if (bucket_counts[i] != 0) {
      buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  detail::update_min(min_, min);
  detail::update_max(max_, max);
#else
  (void)bucket_counts;
  (void)count;
  (void)sum;
  (void)min;
  (void)max;
#endif
}

std::size_t Histogram::bucket_index(std::int64_t value) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

std::int64_t Histogram::min() const noexcept {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::int64_t Histogram::max() const noexcept {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

// ---- SpanStat ---------------------------------------------------------------

std::int64_t SpanStat::min() const noexcept {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

std::int64_t SpanStat::max() const noexcept {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

// ---- TelemetrySnapshot ------------------------------------------------------

std::string TelemetrySnapshot::to_json() const {
  std::string out;
  out.reserve(256 + metrics.size() * 96);
  out += "{\n";
  out += "  \"schema\": \"explora.telemetry.v1\",\n";
  out += "  \"now\": ";
  append_i64(out, now);
  out += ",\n";
  out += "  \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_escaped(out, name);
    out += ": ";
    append_metric(out, metric);
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::uint64_t TelemetrySnapshot::counter(std::string_view name) const {
  const auto it = metrics.find(name);
  EXPLORA_EXPECTS_MSG(it != metrics.end(), "no metric named '{}' in snapshot",
                      std::string(name));
  EXPLORA_EXPECTS_MSG(it->second.kind == MetricKind::kCounter,
                      "metric '{}' is a {}, not a counter", std::string(name),
                      to_string(it->second.kind));
  return it->second.count;
}

// ---- Registry ---------------------------------------------------------------

struct Registry::Entry {
  explicit Entry(MetricKind k) : kind(k) {}

  MetricKind kind;
  Counter counter;
  Gauge gauge;
  std::unique_ptr<Histogram> histogram;
  SpanStat span;
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry::Entry& Registry::find_or_create(std::string_view name,
                                          MetricKind kind,
                                          std::span<const std::int64_t> bounds) {
  EXPLORA_EXPECTS_MSG(!name.empty(), "metric name must be non-empty");
  const std::lock_guard<std::shared_mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    auto entry = std::make_unique<Entry>(kind);
    if (kind == MetricKind::kHistogram) {
      entry->histogram = std::make_unique<Histogram>(bounds);
    }
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
    return *it->second;
  }
  Entry& entry = *it->second;
  EXPLORA_EXPECTS_MSG(entry.kind == kind,
                      "metric '{}' already registered as {} (requested {})",
                      std::string(name), to_string(entry.kind),
                      to_string(kind));
  if (kind == MetricKind::kHistogram) {
    EXPLORA_EXPECTS_MSG(
        entry.histogram->bounds() ==
            std::vector<std::int64_t>(bounds.begin(), bounds.end()),
        "histogram '{}' re-registered with different bounds",
        std::string(name));
  }
  return entry;
}

Counter& Registry::counter(std::string_view name) {
  return find_or_create(name, MetricKind::kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(name, MetricKind::kGauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const std::int64_t> bounds) {
  return *find_or_create(name, MetricKind::kHistogram, bounds).histogram;
}

SpanStat& Registry::span(std::string_view name) {
  return find_or_create(name, MetricKind::kSpan, {}).span;
}

TelemetrySnapshot Registry::snapshot() const {
  TelemetrySnapshot snap;
  snap.now = now();
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot m;
    m.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        m.count = entry->counter.value();
        break;
      case MetricKind::kGauge:
        m.value = entry->gauge.value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry->histogram;
        m.count = h.count();
        m.sum = h.sum();
        m.min = h.min();
        m.max = h.max();
        m.bounds = h.bounds();
        m.buckets.resize(m.bounds.size() + 1);
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          m.buckets[i] = h.bucket_count(i);
        }
        break;
      }
      case MetricKind::kSpan:
        m.count = entry->span.count();
        m.sum = entry->span.total();
        m.min = entry->span.min();
        m.max = entry->span.max();
        break;
    }
    snap.metrics.emplace(name, std::move(m));
  }
  return snap;
}

std::string Registry::snapshot_json() const { return snapshot().to_json(); }

std::size_t Registry::size() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  return metrics_.size();
}

// ---- active registry --------------------------------------------------------

namespace {

// One slot per thread: each run or test installs its registry on its own
// thread, so concurrent runs never see each other's.
Registry*& active_slot() noexcept {
  thread_local Registry* active = &global_registry();
  return active;
}

}  // namespace

Registry& global_registry() {
  static Registry registry;
  return registry;
}

Registry& active_registry() noexcept { return *active_slot(); }

ScopedRegistry::ScopedRegistry()
    : owned_(std::make_unique<Registry>()),
      active_(owned_.get()),
      previous_(&active_registry()) {
  active_slot() = active_;
}

ScopedRegistry::ScopedRegistry(Registry& registry)
    : active_(&registry), previous_(&active_registry()) {
  active_slot() = active_;
}

ScopedRegistry::~ScopedRegistry() { active_slot() = previous_; }

}  // namespace explora::telemetry
