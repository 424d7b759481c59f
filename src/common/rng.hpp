// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repository draws from an explicitly
// seeded Xoshiro256** generator so that benches regenerate identical
// tables run-to-run.
#ifndef EDGEMM_COMMON_RNG_HPP
#define EDGEMM_COMMON_RNG_HPP

#include <array>
#include <cstdint>

namespace edgemm {

/// Xoshiro256** PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 so that nearby seeds give unrelated streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Log-normal: exp(N(mu, sigma)).
  double log_normal(double mu, double sigma);

  /// Bernoulli with probability p of true.
  bool bernoulli(double p);

  /// Forks an independent stream (for per-layer/per-core generators).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace edgemm

#endif  // EDGEMM_COMMON_RNG_HPP
