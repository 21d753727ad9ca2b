// Deterministic random-number generation for the simulator.
//
// Every stochastic component takes an explicit Rng (or a seed) so that any
// experiment is exactly reproducible from its seed. The generator is
// xoshiro256** seeded through SplitMix64, which is fast, has a 2^256-1
// period, and passes BigCrush — more than adequate for workload synthesis.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace nezha::common {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Marsaglia polar method.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal parameterized by the underlying normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Pareto with scale xm > 0 and shape alpha > 0 (heavy tail).
  double pareto(double xm, double alpha);

  /// Zipf-distributed rank in [1, n] with exponent s (rejection sampling).
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_u64(0, i - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for per-component streams).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace nezha::common
