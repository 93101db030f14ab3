#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace explora::common {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

SampleStore::SampleStore(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  EXPLORA_EXPECTS(capacity > 0);
  samples_.reserve(capacity);
}

void SampleStore::add(double x) {
  stats_.add(x);
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  // Algorithm R: replace a random retained sample with probability cap/seen.
  const std::size_t slot = rng_.index(stats_.count());
  if (slot < capacity_) samples_[slot] = x;
}

double SampleStore::quantile(double q) const {
  return common::quantile(samples_, q);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  EXPLORA_EXPECTS(bins > 0);
  EXPLORA_EXPECTS(hi > lo);
}

namespace {

/// The bin of `x` among `bins` equal bins over [lo, hi], edges clamped.
std::size_t bin_of(double x, double lo, double hi, std::size_t bins) noexcept {
  const double width = (hi - lo) / static_cast<double>(bins);
  auto bin = static_cast<std::ptrdiff_t>(std::floor((x - lo) / width));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(bins) - 1);
  return static_cast<std::size_t>(bin);
}

}  // namespace

void Histogram::add(double x) noexcept {
  ++counts_[bin_of(x, lo_, hi_, counts_.size())];
  ++total_;
}

std::size_t Histogram::count(std::size_t bin) const {
  EXPLORA_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

std::vector<double> Histogram::pmf() const {
  std::vector<double> p(counts_.size(), 0.0);
  if (total_ == 0) {
    const double u = 1.0 / static_cast<double>(counts_.size());
    std::fill(p.begin(), p.end(), u);
    return p;
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return p;
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  EXPLORA_EXPECTS(alpha > 0.0 && alpha <= 1.0);
}

void Ewma::add(double x) noexcept {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
    return;
  }
  value_ = alpha_ * x + (1.0 - alpha_) * value_;
}

double Ewma::value(double fallback) const noexcept {
  return initialized_ ? value_ : fallback;
}

double quantile(std::span<const double> data, double q) {
  EXPLORA_EXPECTS(q >= 0.0 && q <= 1.0);
  if (data.empty()) return 0.0;
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> data) { return quantile(data, 0.5); }

double jensen_shannon_divergence(std::span<const double> a,
                                 std::span<const double> b,
                                 std::size_t bins) {
  if (a.empty() || b.empty()) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double x : a) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  for (double x : b) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (!(hi > lo)) return 0.0;  // all samples identical across both sets
  // Bin counts live on the stack up to kStackBins bins. The arithmetic is
  // Histogram's: pmf entries are count / total and the mixture is their
  // mean, so the result keeps its bits whichever storage holds the counts.
  EXPLORA_EXPECTS(bins > 0);
  constexpr std::size_t kStackBins = 64;
  std::array<std::size_t, 2 * kStackBins> stack_counts{};
  std::vector<std::size_t> heap_counts;
  std::span<std::size_t> counts(stack_counts);
  if (bins > kStackBins) {
    heap_counts.assign(2 * bins, 0);
    counts = heap_counts;
  }
  const std::span<std::size_t> counts_a = counts.first(bins);
  const std::span<std::size_t> counts_b = counts.subspan(bins, bins);
  for (double x : a) ++counts_a[bin_of(x, lo, hi, bins)];
  for (double x : b) ++counts_b[bin_of(x, lo, hi, bins)];
  const auto total_a = static_cast<double>(a.size());
  const auto total_b = static_cast<double>(b.size());
  // KL(p_a || m) and KL(p_b || m) with m = (p_a + p_b) / 2, each summed in
  // bin order. A bin only one side occupies adds exactly that side's p,
  // since p / (0.5 * p) == 2 and log2(2) == 1; log2 runs on shared bins only.
  double kl_a = 0.0;
  double kl_b = 0.0;
  for (std::size_t i = 0; i < bins; ++i) {
    const std::size_t ca = counts_a[i];
    const std::size_t cb = counts_b[i];
    if (ca == 0 && cb == 0) continue;
    const double pa = static_cast<double>(ca) / total_a;
    const double pb = static_cast<double>(cb) / total_b;
    if (cb == 0) {
      kl_a += pa;
    } else if (ca == 0) {
      kl_b += pb;
    } else {
      const double mid = 0.5 * (pa + pb);
      kl_a += pa * std::log2(pa / mid);  // det-ok: libm-transcendental (ROADMAP item 3)
      kl_b += pb * std::log2(pb / mid);  // det-ok: libm-transcendental (ROADMAP item 3)
    }
  }
  return 0.5 * kl_a + 0.5 * kl_b;
}

std::vector<double> cdf_points(std::span<const double> data,
                               std::size_t points) {
  EXPLORA_EXPECTS(points > 1);
  std::vector<double> out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back(quantile(data, q));
  }
  return out;
}

}  // namespace explora::common
