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

// One SplitMix64 step from x: decorrelates seed/tag mixtures.
std::uint64_t mix(std::uint64_t x) { return SplitMix64(x)(); }
}  // namespace

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
