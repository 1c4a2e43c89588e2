// Deterministic random number generation.
//
// A single master seed fans out into independent named streams via fork(),
// so adding a new consumer never perturbs the draws seen by existing ones —
// essential for reproducible experiments.
//
// Each stream's engine is xoshiro256** whose four state words are the first
// four SplitMix64 outputs of the stream seed, and a fork's seed is one
// SplitMix64 step of the parent seed mixed with the tag. Seeding a stream
// costs four such steps, which matters because a campaign shard forks a
// dozen fresh streams and draws only a few values from each. Raw engine
// words and fork seeds are fixed by the published algorithms
// (tests/golden/rng_draws.txt pins them); the draws of each kind still go
// through libstdc++'s std::*_distribution, so those are bit-identical only
// on that standard library.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace acute::sim {

/// SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014; Vigna's splitmix64.c): a counter stepped by the
/// golden gamma and passed through a bijective finaliser. It seeds
/// Xoshiro256ss and derives fork seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t operator()() {
    std::uint64_t z = state_ += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** (Blackman & Vigna, "Scrambled linear pseudorandom number
/// generators", https://arxiv.org/abs/1805.01407): a UniformRandomBitGenerator
/// with four words of state, period 2^256 - 1, and a stream fixed by the
/// reference xoshiro256starstar.c on every platform and standard library.
/// Seeding is four SplitMix64 steps, so a fresh stream's first draw costs
/// about as much as any other.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;
  using State = std::array<result_type, 4>;

  /// The state is four consecutive SplitMix64(seed) outputs, as the
  /// reference recommends; they are never all zero.
  explicit Xoshiro256ss(result_type seed) {
    SplitMix64 seeder(seed);
    for (result_type& word : s_) word = seeder();
  }
  /// Starts from the given state words, which must not all be zero.
  explicit Xoshiro256ss(const State& state) : s_(state) {}

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const result_type result = std::rotl(s_[1] * 5, 7) * 9;
    const result_type t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

 private:
  State s_;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Derives an independent child stream keyed by `tag`.
  [[nodiscard]] Rng fork(std::string_view tag) const;

  /// Derives an independent child stream keyed by an integer tag.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal draw (mean mu, stddev sigma).
  double normal(double mu, double sigma);

  /// Normal draw truncated to [lo, hi] by resampling (max 64 tries, then
  /// clamped). Used for latencies with known physical bounds.
  double truncated_normal(double mu, double sigma, double lo, double hi);

  /// Log-normal draw parameterised by the *underlying* normal (mu, sigma).
  double lognormal(double mu, double sigma);

  /// Exponential draw with the given mean.
  double exponential(double mean);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Uniform Duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi);

  /// Truncated-normal Duration, parameters in milliseconds.
  Duration truncated_normal_ms(double mu_ms, double sigma_ms, double lo_ms,
                               double hi_ms);

  /// The raw engine, for std:: distributions: xoshiro256** seeded by
  /// SplitMix64(seed()).
  Xoshiro256ss& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  Xoshiro256ss engine_;
};

}  // namespace acute::sim
