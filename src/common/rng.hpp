// Deterministic random number generation for the whole project.
//
// Every stochastic component (channel fading, traffic arrivals, PPO
// exploration, SHAP sampling, ...) owns its own Rng stream derived from a
// master seed, so experiments are reproducible bit-for-bit and adding a new
// consumer does not perturb existing streams.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64; both are public-domain algorithms reimplemented here.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

namespace explora::common {

/// Stateless 64-bit mixing function; used for seeding and stream derivation.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator with distribution helpers.
///
/// Satisfies UniformRandomBitGenerator so it can also be plugged into
/// <random> distributions, but the members below are preferred: they are
/// guaranteed stable across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a single 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept;

  /// Derives an independent child stream. The tag decorrelates children
  /// created from the same parent state (e.g. one stream per UE).
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept;
  [[nodiscard]] Rng fork(std::string_view tag) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal() noexcept;
  /// out[i] = streams[i]->normal() for every i, bit for bit: each stream
  /// returns its cached variate or draws its uniform pair (redrawing a
  /// zero u1) in its own order, and caches the pair's second variate.
  /// The pairs' log and sincos run across SIMD lanes
  /// (detmath::log_sincos_array). The streams must be distinct and out must
  /// hold streams.size() doubles. Allocates nothing.
  static void normals(std::span<Rng* const> streams,
                      std::span<double> out) noexcept;
  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;
  /// Exponential with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept;
  /// out[i] = streams[i]->exponential(1.0) for every i, bit for bit, with
  /// the logs across SIMD lanes; the contract of normals() otherwise.
  static void exponentials(std::span<Rng* const> streams,
                           std::span<double> out) noexcept;
  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64; see PoissonSampler).
  [[nodiscard]] std::uint32_t poisson(double mean) noexcept;
  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;
  /// Uniform index in [0, n); n must be > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(T& container) noexcept {
    if (container.size() < 2) return;
    for (std::size_t i = container.size() - 1; i > 0; --i) {
      using std::swap;
      swap(container[i], container[index(i + 1)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Poisson draws at one fixed mean. Rng::poisson builds one per call; a
/// source that always draws at the same mean keeps one, so Knuth's
/// exp(-mean) threshold is computed once rather than on every draw. Both
/// paths consume the generator identically.
class PoissonSampler {
 public:
  /// @param mean expected count (>= 0).
  explicit PoissonSampler(double mean);

  /// Knuth's multiplication method for means below 64, the normal
  /// approximation above; a zero mean returns 0 without drawing.
  [[nodiscard]] std::uint32_t operator()(Rng& rng) const noexcept;

 private:
  double mean_;
  double threshold_;  ///< exp(-mean) on the Knuth path
};

}  // namespace explora::common
