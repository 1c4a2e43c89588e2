#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>

#include "sim/contracts.hpp"
#include "sim/random.hpp"

namespace acute::sim {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(42);
  Rng c1 = parent.fork("alpha");
  Rng c2 = Rng(42).fork("alpha");
  EXPECT_DOUBLE_EQ(c1.uniform(0, 1), c2.uniform(0, 1));

  Rng other = parent.fork("beta");
  EXPECT_NE(parent.fork("alpha").seed(), other.seed());
}

TEST(Rng, ForkByIntegerTag) {
  Rng parent(42);
  EXPECT_EQ(parent.fork(1).seed(), Rng(42).fork(1).seed());
  EXPECT_NE(parent.fork(1).seed(), parent.fork(2).seed());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(7), b(7);
  (void)a.fork("child");
  EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalZeroSigmaIsDegenerate) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.truncated_normal(10.0, 3.0, 8.0, 13.0);
    EXPECT_GE(x, 8.0);
    EXPECT_LE(x, 13.0);
  }
}

TEST(Rng, TruncatedNormalDegenerateRangeClamps) {
  Rng rng(11);
  // Bounds far from the mean: resampling fails, result clamps to bounds.
  const double x = rng.truncated_normal(0.0, 0.001, 100.0, 101.0);
  EXPECT_GE(x, 100.0);
  EXPECT_LE(x, 101.0);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.15);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, UniformDurationWithinRange) {
  Rng rng(19);
  const Duration lo = Duration::millis(2);
  const Duration hi = Duration::millis(9);
  for (int i = 0; i < 500; ++i) {
    const Duration d = rng.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(Rng, ContractViolations) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform(2, 1), ContractViolation);
  EXPECT_THROW((void)rng.uniform_int(2, 1), ContractViolation);
  EXPECT_THROW((void)rng.normal(0, -1), ContractViolation);
  EXPECT_THROW((void)rng.exponential(0), ContractViolation);
  EXPECT_THROW((void)rng.bernoulli(1.5), ContractViolation);
}

// The lazy engine is pinned to the standard bit for bit: draw counts around
// the first block's seeding and twisting boundaries (word k reads k+1 and
// k+156; the block is 312 words) and well past it.
constexpr std::uint64_t kEngineSeeds[] = {0, 1, 42, ~std::uint64_t{0}};

TEST(LazyMt19937_64, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed : kEngineSeeds) {
    for (const int draws : {1, 155, 156, 157, 311, 312, 313, 5000}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " draws " +
                   std::to_string(draws));
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < draws; ++i) {
        ASSERT_EQ(rng.engine()(), reference()) << "draw " << i;
      }
    }
  }
}

TEST(LazyMt19937_64, CopyContinuesLikeTheOriginal) {
  for (const std::uint64_t seed : kEngineSeeds) {
    for (const int before : {0, 1, 100, 155, 156, 157, 311, 312, 700}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " copied after " +
                   std::to_string(before));
      LazyMt19937_64 original(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < before; ++i) {
        ASSERT_EQ(original(), reference());
      }
      LazyMt19937_64 copy = original;
      LazyMt19937_64 assigned(seed ^ 1);
      (void)assigned();  // a partly seeded target, overwritten below
      assigned = original;
      for (int i = 0; i < 1000; ++i) {
        const std::uint64_t want = reference();
        ASSERT_EQ(original(), want);
        ASSERT_EQ(copy(), want);
        ASSERT_EQ(assigned(), want);
      }
    }
  }
}

TEST(LazyMt19937_64, DistributionsMatchStdDrivenByMt19937_64) {
  // Interleaved draws of every kind, each against the std distribution the
  // Rng documents, driven by a std engine on the same seed. The op sequence
  // comes from a separate generator, so it straddles the first block's
  // boundaries at varying offsets.
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const std::uint64_t seed : kEngineSeeds) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    std::mt19937_64 ops(seed + 7);
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      switch (ops() % 7) {
        case 0:
          ASSERT_TRUE(same(rng.uniform(-2.0, 3.0),
                           std::uniform_real_distribution<double>(
                               -2.0, 3.0)(reference)));
          break;
        case 1:
          ASSERT_EQ(rng.uniform_int(-5, 1000000),
                    std::uniform_int_distribution<std::int64_t>(
                        -5, 1000000)(reference));
          break;
        case 2:
          ASSERT_TRUE(same(rng.normal(10.0, 2.5),
                           std::normal_distribution<double>(10.0, 2.5)(
                               reference)));
          break;
        case 3: {
          double want = std::clamp(1.0, 0.5, 1.5);
          for (int i = 0; i < 64; ++i) {
            const double x =
                std::normal_distribution<double>(1.0, 0.8)(reference);
            if (x >= 0.5 && x <= 1.5) {
              want = x;
              break;
            }
          }
          ASSERT_TRUE(same(rng.truncated_normal(1.0, 0.8, 0.5, 1.5), want));
          break;
        }
        case 4:
          ASSERT_TRUE(same(rng.lognormal(0.3, 0.6),
                           std::lognormal_distribution<double>(0.3, 0.6)(
                               reference)));
          break;
        case 5:
          ASSERT_TRUE(same(rng.exponential(4.0),
                           std::exponential_distribution<double>(1.0 / 4.0)(
                               reference)));
          break;
        default:
          ASSERT_EQ(rng.bernoulli(0.3),
                    std::bernoulli_distribution(0.3)(reference));
          break;
      }
    }
  }
}

// Property sweep: sample means of the latency-style distributions track
// their parameters across a range of settings.
struct MeanCase {
  double mu;
  double sigma;
};

class TruncatedNormalMean : public ::testing::TestWithParam<MeanCase> {};

TEST_P(TruncatedNormalMean, SampleMeanNearMu) {
  const auto [mu, sigma] = GetParam();
  Rng rng(static_cast<std::uint64_t>(mu * 1000 + sigma));
  double sum = 0;
  constexpr int kSamples = 5000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.truncated_normal(mu, sigma, mu - 3 * sigma, mu + 3 * sigma);
  }
  EXPECT_NEAR(sum / kSamples, mu, sigma * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TruncatedNormalMean,
                         ::testing::Values(MeanCase{1.0, 0.2},
                                           MeanCase{10.2, 1.0},
                                           MeanCase{0.5, 0.1},
                                           MeanCase{100.0, 5.0}));

}  // namespace
}  // namespace acute::sim
