#ifndef CAMAL_COMMON_RNG_H_
#define CAMAL_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace camal {

/// Deterministic pseudo-random number generator used across the library.
///
/// Every stochastic component (weight init, data simulation, shuffling)
/// takes an explicit Rng or seed so runs are reproducible. The
/// engine is std::mt19937_64 seeded explicitly; copying an Rng forks the
/// stream state.
class Rng {
 public:
  /// Creates a generator seeded with \p seed.
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Gaussian with mean \p mean and standard deviation \p stddev.
  double Gaussian(double mean, double stddev) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Bernoulli trial with success probability \p p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Poisson-distributed count with rate \p lambda.
  int64_t Poisson(double lambda) {
    std::poisson_distribution<int64_t> dist(lambda);
    return dist(engine_);
  }

  /// Exponential inter-arrival sample with rate \p lambda.
  double Exponential(double lambda) {
    std::exponential_distribution<double> dist(lambda);
    return dist(engine_);
  }

  /// Fisher-Yates shuffles \p items in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives an independent child generator (for parallel streams).
  Rng Fork() { return Rng(engine_()); }

  /// Access to the raw engine for use with std distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace camal

#endif  // CAMAL_COMMON_RNG_H_
