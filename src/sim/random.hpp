// Deterministic random number generation.
//
// A single master seed fans out into independent named streams via fork(),
// so adding a new consumer never perturbs the draws seen by existing ones —
// essential for reproducible experiments.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

namespace acute::sim {

/// A UniformRandomBitGenerator whose output is exactly std::mt19937_64(seed)'s
/// — the seeding recurrence, twist and tempering are fixed by the standard
/// ([rand.eng.mers]), so the stream matches on every standard library — but
/// which materialises only the state it needs.
///
/// std seeds all 312 state words and twists all of them before the first
/// draw. Here construction stores the seed word alone. Within the first
/// block, draw k seeds state words only up to k+156 (the highest word the
/// twist of word k reads) and twists only word k, so a stream that draws a
/// handful of values pays for a handful of words. Once the first block is
/// used up, whole blocks are twisted at a time exactly as std does, so long
/// streams pay the same per draw.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit LazyMt19937_64(result_type seed) { state_[0] = seed; }
  /// Copies only the seeded prefix: no unseeded word is ever read.
  LazyMt19937_64(const LazyMt19937_64& other);
  LazyMt19937_64& operator=(const LazyMt19937_64& other);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == ready_) refill();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kWords = 312;

  /// Makes word next_ ready: twists the next word of the first block, or
  /// the whole next block once the first is used up.
  void refill();

  std::uint32_t seeded_ = 1;  // state_[0, seeded_) hold defined words
  std::uint32_t ready_ = 0;   // state_[0, ready_) are twisted for this block
  std::uint32_t next_ = 0;    // next word to temper and return
  std::array<result_type, kWords> state_;  // only [0, seeded_) is ever read
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

  /// The raw engine, for std:: distributions. It yields exactly
  /// std::mt19937_64(seed())'s stream, but a stream that is only forked
  /// onward never seeds more than its seed word, and one that draws
  /// k <= 156 values seeds k+156 state words and twists k, where std seeds
  /// and twists all 312 up front.
  LazyMt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  LazyMt19937_64 engine_;
};

}  // namespace acute::sim
