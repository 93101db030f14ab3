#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/contracts.hpp"
#include "common/detmath.hpp"
#include "common/fnv.hpp"

namespace explora::common {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// Box-Muller's angle for the second uniform of a pair.
constexpr double angle_of(double u2) noexcept {
  return 2.0 * std::numbers::pi * u2;
}

/// Streams one batched draw takes at a time; the scratch lives on the
/// stack, so a batch of any size allocates nothing.
constexpr std::size_t kBatchChunk = 16;

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
  // A state of all zeros is the one invalid xoshiro256** state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::fork(std::uint64_t tag) noexcept {
  std::uint64_t mix = (*this)() ^ (tag * 0x9e3779b97f4a7c15ULL);
  return Rng{splitmix64(mix)};
}

Rng Rng::fork(std::string_view tag) noexcept {
  // FNV-1a over the tag, mixed with the parent stream.
  std::uint64_t h = kFnvBasis;
  fnv1a_text(h, tag);
  return fork(h);
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  EXPLORA_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw = (*this)();
  while (draw >= limit) draw = (*this)();
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * detmath::log(u1));
  const detmath::SinCos sc = detmath::sincos(angle_of(u2));
  cached_normal_ = radius * sc.sin;
  has_cached_normal_ = true;
  return radius * sc.cos;
}

void Rng::normals(std::span<Rng* const> streams,
                  std::span<double> out) noexcept {
  EXPLORA_EXPECTS(out.size() == streams.size());
  for (std::size_t base = 0; base < streams.size(); base += kBatchChunk) {
    const std::size_t count = std::min(kBatchChunk, streams.size() - base);
    // Gather the streams that need a fresh pair, in stream order.
    std::size_t slot[kBatchChunk];
    double u1[kBatchChunk];
    double angle[kBatchChunk];
    std::size_t fresh = 0;
    for (std::size_t i = base; i < base + count; ++i) {
      Rng& rng = *streams[i];
      if (rng.has_cached_normal_) {
        rng.has_cached_normal_ = false;
        out[i] = rng.cached_normal_;
        continue;
      }
      double u = rng.uniform();
      while (u <= 0.0) u = rng.uniform();
      u1[fresh] = u;
      angle[fresh] = angle_of(rng.uniform());
      slot[fresh++] = i;
    }
    if (fresh == 0) continue;
    double log_u1[kBatchChunk];
    double sin_a[kBatchChunk];
    double cos_a[kBatchChunk];
    detmath::log_sincos_array(u1, angle, log_u1, sin_a, cos_a, fresh);
    for (std::size_t j = 0; j < fresh; ++j) {
      Rng& rng = *streams[slot[j]];
      const double radius = std::sqrt(-2.0 * log_u1[j]);
      rng.cached_normal_ = radius * sin_a[j];
      rng.has_cached_normal_ = true;
      out[slot[j]] = radius * cos_a[j];
    }
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  EXPLORA_EXPECTS(rate > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -detmath::log(u) / rate;
}

void Rng::exponentials(std::span<Rng* const> streams,
                       std::span<double> out) noexcept {
  EXPLORA_EXPECTS(out.size() == streams.size());
  for (std::size_t base = 0; base < streams.size(); base += kBatchChunk) {
    const std::size_t count = std::min(kBatchChunk, streams.size() - base);
    double u[kBatchChunk];
    for (std::size_t i = 0; i < count; ++i) {
      Rng& rng = *streams[base + i];
      u[i] = rng.uniform();
      while (u[i] <= 0.0) u[i] = rng.uniform();
    }
    double log_u[kBatchChunk];
    detmath::log_array(u, log_u, count);
    // exponential(1.0)'s -log(u) / 1.0 is -log(u) exactly.
    for (std::size_t i = 0; i < count; ++i) out[base + i] = -log_u[i];
  }
}

std::uint32_t Rng::poisson(double mean) noexcept {
  return PoissonSampler(mean)(*this);
}

PoissonSampler::PoissonSampler(double mean)
    : mean_(mean), threshold_(mean < 64.0 ? detmath::exp(-mean) : 0.0) {
  EXPLORA_EXPECTS(mean >= 0.0);
}

std::uint32_t PoissonSampler::operator()(Rng& rng) const noexcept {
  if (mean_ == 0.0) return 0;  // det-ok: float-eq (degenerate-rate short-circuit)
  if (mean_ < 64.0) {
    // Knuth's multiplication method.
    std::uint32_t count = 0;
    double product = rng.uniform();
    while (product > threshold_) {
      ++count;
      product *= rng.uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double draw = rng.normal(mean_, std::sqrt(mean_));
  return draw <= 0.0 ? 0u : static_cast<std::uint32_t>(draw + 0.5);
}

bool Rng::bernoulli(double p) noexcept {
  return uniform() < std::clamp(p, 0.0, 1.0);
}

std::size_t Rng::index(std::size_t n) noexcept {
  EXPLORA_EXPECTS(n > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace explora::common
