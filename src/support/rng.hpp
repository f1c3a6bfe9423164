// Deterministic random number generation. Every stochastic component in the
// simulator draws from an Rng seeded explicitly, so whole-system runs are
// reproducible bit-for-bit (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <vector>

namespace forksim {

/// xoshiro256** seeded via splitmix64. Not cryptographic; used only for
/// simulation draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform over the full 64-bit range.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Uniform real in [0, 1).
  double uniform01() noexcept;

  /// True with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Exponential with the given mean (inverse-CDF method); mean <= 0 gives 0.
  double exponential(double mean) noexcept;

  /// Standard normal via Box-Muller.
  double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Poisson-distributed count (Knuth for small lambda, normal approx above
  /// 64).
  std::uint64_t poisson(double lambda) noexcept;

  /// Pareto(x_min, alpha) — heavy-tailed draw used for pool/miner sizes.
  double pareto(double x_min, double alpha) noexcept;

  /// Index sampled proportionally to `weights` (all non-negative; if the sum
  /// is 0, uniform). Returns 0 on empty input.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

  /// Fork a child generator with an independent stream.
  Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace forksim
