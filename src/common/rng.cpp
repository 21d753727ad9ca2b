#include "src/common/rng.h"

#include <cmath>

namespace nezha::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ULL) - ((~0ULL) % span);
  std::uint64_t r;
  do {
    r = next();
  } while (r >= limit && limit != 0);
  return lo + (r % span);
}

double Rng::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return mean + stddev * (u * factor);
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::pareto(double xm, double alpha) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  // Rejection-inversion sampling (Hormann & Derflinger) simplified for the
  // workload sizes we use; falls back to inverse-CDF for small n.
  if (n <= 1) return 1;
  if (n <= 1024) {
    // Exact inverse CDF over precomputable small supports.
    double total = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) total += 1.0 / std::pow(k, s);
    double u = uniform() * total;
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(k, s);
      if (u <= acc) return k;
    }
    return n;
  }
  // For large n, approximate via the continuous bounding distribution.
  const double t = (std::pow(static_cast<double>(n), 1.0 - s) - s) / (1.0 - s);
  while (true) {
    const double u = uniform() * t;
    const double x =
        (u <= 1.0) ? u
                   : std::pow(u * (1.0 - s) + s, 1.0 / (1.0 - s));
    std::uint64_t k = static_cast<std::uint64_t>(x) + 1;
    if (k > n) k = n;
    const double ratio = std::pow(static_cast<double>(k), -s) /
                         ((u <= 1.0) ? 1.0 : std::pow(x, -s));
    if (uniform() <= ratio) return k;
  }
}

Rng Rng::fork() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace nezha::common
