#include "sim/random.hpp"

#include <algorithm>
#include <random>

#include "sim/contracts.hpp"

namespace acute::sim {

namespace {
// FNV-1a, used to mix fork tags into the parent seed.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

// SplitMix64 finaliser: decorrelates seed/tag mixtures.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// std::mt19937_64's parameters ([rand.predef]).
constexpr std::uint32_t kShift = 156;  // m: the twist of word k reads k+m
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ULL;

/// One step of the recurrence: the new value of word k from the old word k,
/// word k+1 and word k+m (indices mod n).
std::uint64_t twist(std::uint64_t word, std::uint64_t next,
                    std::uint64_t far) {
  const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
}
}  // namespace

LazyMt19937_64::LazyMt19937_64(const LazyMt19937_64& other)
    : seeded_(other.seeded_), ready_(other.ready_), next_(other.next_) {
  std::copy_n(other.state_.begin(), seeded_, state_.begin());
}

LazyMt19937_64& LazyMt19937_64::operator=(const LazyMt19937_64& other) {
  if (this == &other) return *this;
  seeded_ = other.seeded_;
  ready_ = other.ready_;
  next_ = other.next_;
  std::copy_n(other.state_.begin(), seeded_, state_.begin());
  return *this;
}

void LazyMt19937_64::refill() {
  if (ready_ == kWords) {
    // Past the first block: regenerate the whole state in place, as std
    // does. Words k+1 and k+m past the end wrap to already-new words.
    for (std::uint32_t k = 0; k < kWords - kShift; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (std::uint32_t k = kWords - kShift; k < kWords - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - kWords]);
    }
    state_[kWords - 1] =
        twist(state_[kWords - 1], state_[0], state_[kShift - 1]);
    next_ = 0;
    return;
  }
  // First block: word k reads words k+1 and k+m. Seed up to k+m (or the
  // last word), then twist word k alone; words below k are already new,
  // exactly as in std's in-place pass.
  const std::uint32_t k = ready_;
  const std::uint32_t end = std::min(k + kShift + 1, kWords);
  if (seeded_ < end) {
    // The previous word rides in a register, off the store-to-load path.
    std::uint64_t word = state_[seeded_ - 1];
    for (std::uint32_t i = seeded_; i < end; ++i) {
      word = kSeedMultiplier * (word ^ (word >> 62)) + i;
      state_[i] = word;
    }
    seeded_ = end;
  }
  const std::uint32_t next = k + 1 == kWords ? 0 : k + 1;
  const std::uint32_t far =
      k < kWords - kShift ? k + kShift : k + kShift - kWords;
  state_[k] = twist(state_[k], state_[next], state_[far]);
  ++ready_;
}

Rng Rng::fork(std::string_view tag) const {
  return Rng(mix(seed_ ^ fnv1a(tag)));
}

Rng Rng::fork(std::uint64_t tag) const {
  return Rng(mix(seed_ ^ mix(tag)));
}

double Rng::uniform(double lo, double hi) {
  expects(lo <= hi, "Rng::uniform requires lo <= hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine());
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  expects(lo <= hi, "Rng::uniform_int requires lo <= hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine());
}

double Rng::normal(double mu, double sigma) {
  expects(sigma >= 0, "Rng::normal requires sigma >= 0");
  if (sigma == 0) return mu;
  return std::normal_distribution<double>(mu, sigma)(engine());
}

double Rng::truncated_normal(double mu, double sigma, double lo, double hi) {
  expects(lo <= hi, "Rng::truncated_normal requires lo <= hi");
  for (int i = 0; i < 64; ++i) {
    const double x = normal(mu, sigma);
    if (x >= lo && x <= hi) return x;
  }
  return std::clamp(mu, lo, hi);
}

double Rng::lognormal(double mu, double sigma) {
  expects(sigma >= 0, "Rng::lognormal requires sigma >= 0");
  return std::lognormal_distribution<double>(mu, sigma)(engine());
}

double Rng::exponential(double mean) {
  expects(mean > 0, "Rng::exponential requires mean > 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine());
}

bool Rng::bernoulli(double p) {
  expects(p >= 0.0 && p <= 1.0, "Rng::bernoulli requires p in [0, 1]");
  return std::bernoulli_distribution(p)(engine());
}

Duration Rng::uniform_duration(Duration lo, Duration hi) {
  expects(lo <= hi, "Rng::uniform_duration requires lo <= hi");
  return Duration::nanos(uniform_int(lo.count_nanos(), hi.count_nanos()));
}

Duration Rng::truncated_normal_ms(double mu_ms, double sigma_ms, double lo_ms,
                                  double hi_ms) {
  return Duration::millis(truncated_normal(mu_ms, sigma_ms, lo_ms, hi_ms));
}

}  // namespace acute::sim
