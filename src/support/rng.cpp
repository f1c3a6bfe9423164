#include "support/rng.hpp"

#include <cmath>
#include <numbers>

namespace forksim {

namespace {
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& limb : s_) limb = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // rejection sampling to avoid modulo bias
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::exponential(double mean) noexcept {
  if (mean <= 0.0) return 0.0;
  double u = uniform01();
  // avoid log(0)
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double mag =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * mag;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double lambda) noexcept {
  if (lambda <= 0.0) return 0;
  if (lambda < 64.0) {
    const double limit = std::exp(-lambda);
    double product = uniform01();
    std::uint64_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform01();
    }
    return count;
  }
  // normal approximation for large rates
  const double draw = normal(lambda, std::sqrt(lambda));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double Rng::pareto(double x_min, double alpha) noexcept {
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return x_min / std::pow(u, 1.0 / alpha);
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  if (weights.empty()) return 0;
  double total = 0.0;
  for (double w : weights)
    if (w > 0.0) total += w;
  if (total <= 0.0) return uniform(weights.size());
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() noexcept { return Rng(next()); }

}  // namespace forksim
