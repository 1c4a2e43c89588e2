#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "stats/boxplot.hpp"
#include "stats/cdf.hpp"
#include "stats/digest.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace acute::stats {
namespace {

TEST(Summary, BasicMoments) {
  const std::vector<double> sample{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s(sample);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample (n-1) stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, MedianEvenAndOdd) {
  EXPECT_DOUBLE_EQ(Summary(std::vector<double>{1, 2, 3}).median(), 2.0);
  EXPECT_DOUBLE_EQ(Summary(std::vector<double>{1, 2, 3, 4}).median(), 2.5);
}

TEST(Summary, PercentileInterpolates) {
  const std::vector<double> sample{10, 20, 30, 40};
  const Summary s(sample);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);  // R type-7
}

TEST(Summary, SingleElement) {
  const Summary s(std::vector<double>{42});
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(Summary, Ci95MatchesHandComputation) {
  // n=5, stddev=1 -> CI = t(4, .975) / sqrt(5) = 2.776 / 2.2360.
  const std::vector<double> sample{-1, -0.5, 0, 0.5, 1};
  const Summary s(sample);
  const double expected = student_t_975(4) * s.stddev() / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), expected);
}

TEST(Summary, MeanCiStringFormat) {
  const std::vector<double> sample{1, 1, 1, 1};
  EXPECT_EQ(Summary(sample).mean_ci_string(2), "1.00 ±0.00");
}

TEST(Summary, EmptySampleViolatesContract) {
  EXPECT_THROW(Summary(std::vector<double>{}), sim::ContractViolation);
}

TEST(StudentT, KnownValuesAndInterpolation) {
  EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_975(10), 2.228);
  EXPECT_DOUBLE_EQ(student_t_975(500), 1.960);
  // Between table rows: monotone decreasing.
  const double t13 = student_t_975(13);
  EXPECT_LT(t13, student_t_975(12));
  EXPECT_GT(t13, student_t_975(15));
}

TEST(BoxPlot, QuartilesAndWhiskers) {
  const std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto box = BoxPlot::from_sample(sample);
  EXPECT_DOUBLE_EQ(box.median, 5.5);
  EXPECT_DOUBLE_EQ(box.q1, 3.25);
  EXPECT_DOUBLE_EQ(box.q3, 7.75);
  EXPECT_DOUBLE_EQ(box.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(box.whisker_high, 10.0);
  EXPECT_TRUE(box.outliers.empty());
}

TEST(BoxPlot, OutliersBeyondFences) {
  std::vector<double> sample{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100};
  const auto box = BoxPlot::from_sample(sample);
  ASSERT_EQ(box.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(box.outliers.front(), 100.0);
  EXPECT_LE(box.whisker_high, 10.0);
}

TEST(BoxPlot, ToStringMentionsAllParts) {
  const auto box = BoxPlot::from_sample(std::vector<double>{1, 2, 3});
  const std::string text = box.to_string();
  EXPECT_NE(text.find("med="), std::string::npos);
  EXPECT_NE(text.find("box=["), std::string::npos);
  EXPECT_NE(text.find("out=0"), std::string::npos);
}

TEST(Cdf, EvaluatesEmpiricalFractions) {
  const std::vector<double> sample{1, 2, 3, 4};
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
}

TEST(Cdf, QuantileIsInverse) {
  const std::vector<double> sample{10, 20, 30, 40};
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 10.0);
}

TEST(Cdf, CurveIsMonotone) {
  const std::vector<double> sample{1, 5, 5, 7, 12};
  const auto points = Cdf(sample).curve(10);
  ASSERT_EQ(points.size(), 10u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].x, points[i - 1].x);
    EXPECT_GE(points[i].f, points[i - 1].f);
  }
  EXPECT_DOUBLE_EQ(points.back().f, 1.0);
}

TEST(Cdf, KsDistanceIdenticalIsZero) {
  const std::vector<double> sample{1, 2, 3, 4, 5};
  const Cdf a(sample), b(sample);
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), 0.0);
}

TEST(Cdf, KsDistanceDisjointIsOne) {
  const Cdf a(std::vector<double>{1, 2, 3});
  const Cdf b(std::vector<double>{10, 11, 12});
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), 1.0);
}

TEST(Cdf, KsDistanceIsSymmetric) {
  const Cdf a(std::vector<double>{1, 2, 3, 7});
  const Cdf b(std::vector<double>{2, 3, 4});
  EXPECT_DOUBLE_EQ(Cdf::ks_distance(a, b), Cdf::ks_distance(b, a));
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name  | value"), std::string::npos);
  EXPECT_NE(text.find("------+------"), std::string::npos);
  EXPECT_NE(text.find("alpha | 1"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, CellFormatsPrecision) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(3.0, 0), "3");
}

TEST(Table, RowWidthMismatchViolatesContract) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), sim::ContractViolation);
}

// Property: for any sample, quantile(q) equals percentile via Summary at
// matching ranks for the extremes.
class CdfSummaryAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CdfSummaryAgreement, MinMaxAgree) {
  std::vector<double> sample;
  sim::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) sample.push_back(rng.uniform(0, 100));
  const Summary summary(sample);
  const Cdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), summary.max());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.001), summary.min());
  EXPECT_DOUBLE_EQ(cdf.at(summary.max()), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfSummaryAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(MergingDigest, SmallSamplesAreExactAtTheMoments) {
  MergingDigest digest;
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) digest.add(x);
  EXPECT_EQ(digest.count(), 5u);
  EXPECT_DOUBLE_EQ(digest.mean(), 3.0);
  EXPECT_NEAR(digest.stddev(),
              Summary(std::vector<double>{5, 1, 3, 2, 4}).stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 5.0);
  EXPECT_DOUBLE_EQ(digest.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(digest.quantile(1.0), 5.0);
  EXPECT_NEAR(digest.quantile(0.5), 3.0, 1e-9);
}

TEST(MergingDigest, CentroidCountStaysBoundedUnderHeavyLoad) {
  MergingDigest digest(64);
  sim::Rng rng(7);
  for (int i = 0; i < 100000; ++i) digest.add(rng.uniform(0.0, 1.0));
  EXPECT_EQ(digest.count(), 100000u);
  EXPECT_LE(digest.centroid_count(), digest.max_centroids());
  // Uniform[0,1]: mid-range quantiles track q closely, tails are tight.
  EXPECT_NEAR(digest.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(digest.quantile(0.99), 0.99, 0.01);
  EXPECT_NEAR(digest.cdf(0.25), 0.25, 0.02);
}

TEST(MergingDigest, FoldOfOneSampleDigestsTracksTheExactSample) {
  // The campaign fold's shape on one-probe shards: every merge donates one
  // centroid, so the pending buffer fills by merges alone.
  constexpr int kDonors = 20000;
  sim::Rng rng(19);
  std::vector<double> sample;
  MergingDigest folded;
  double sum = 0;
  for (int i = 0; i < kDonors; ++i) {
    MergingDigest donor;
    const double x = rng.uniform(0.0, 1.0);
    donor.add(x);
    if (i % 2 == 0) {
      folded.merge(donor);
    } else {
      folded.merge(std::move(donor));
    }
    sample.push_back(x);
    sum += x;
  }
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(folded.count(), static_cast<std::uint64_t>(kDonors));
  EXPECT_EQ(folded.mean(), sum / kDonors);
  EXPECT_EQ(folded.min(), sample.front());
  EXPECT_EQ(folded.max(), sample.back());
  const auto exact = [&](double q) {
    return sample[static_cast<std::size_t>(q * (kDonors - 1))];
  };
  // The tolerances of CentroidCountStaysBoundedUnderHeavyLoad.
  EXPECT_NEAR(folded.quantile(0.01), exact(0.01), 0.01);
  EXPECT_NEAR(folded.quantile(0.5), exact(0.5), 0.02);
  EXPECT_NEAR(folded.quantile(0.99), exact(0.99), 0.01);
  EXPECT_LE(folded.centroid_count(), folded.max_centroids());
}

TEST(MergingDigest, MergeMatchesSingleDigestOfTheUnion) {
  sim::Rng rng(11);
  MergingDigest left, right, whole;
  for (int i = 0; i < 5000; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(5.0, 15.0);
    left.add(a);
    right.add(b);
    whole.add(a);
    whole.add(b);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);  // exact sum of squares
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(left.quantile(q), whole.quantile(q), 0.15);
  }
  EXPECT_LE(left.centroid_count(), left.max_centroids());
}

TEST(MergingDigest, MergeIsDeterministicForAFixedOrder) {
  // The campaign merge folds shard digests in scenario order; the same
  // order must give bit-identical results every time.
  const auto build = [] {
    sim::Rng rng(3);
    std::vector<MergingDigest> shards(8);
    for (auto& shard : shards) {
      for (int i = 0; i < 400; ++i) shard.add(rng.uniform(0.0, 100.0));
    }
    MergingDigest merged;
    for (const auto& shard : shards) merged.merge(shard);
    return merged;
  };
  const MergingDigest a = build();
  const MergingDigest b = build();
  for (const double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q));
  }
  EXPECT_EQ(a.centroid_count(), b.centroid_count());
}

TEST(MergingDigest, SelfMergeDoublesTheSample) {
  MergingDigest digest;
  for (const double x : {1.0, 2.0, 3.0}) digest.add(x);
  digest.merge(digest);
  EXPECT_EQ(digest.count(), 6u);
  EXPECT_DOUBLE_EQ(digest.mean(), 2.0);
  EXPECT_DOUBLE_EQ(digest.min(), 1.0);
  EXPECT_DOUBLE_EQ(digest.max(), 3.0);
}

TEST(MergingDigest, RejectsContractViolations) {
  MergingDigest digest;
  EXPECT_THROW((void)digest.quantile(0.5), sim::ContractViolation);  // empty
  EXPECT_THROW((void)digest.mean(), sim::ContractViolation);
  digest.add(1.0);
  EXPECT_THROW((void)digest.quantile(1.5), sim::ContractViolation);
  EXPECT_THROW(MergingDigest(4), sim::ContractViolation);  // compression < 8
  EXPECT_THROW(MergingDigest(MergingDigest::kMaxCompression + 1),
               sim::ContractViolation);
}

TEST(MergingDigest, FromSnapshotRequiresIntegerWeightsBelow2To53) {
  // compress() keeps its running weight sums exact only for integer
  // weights below 2^53, so a restored digest must not smuggle in others.
  MergingDigest source;
  for (int i = 0; i < 50; ++i) source.add(static_cast<double>(i % 9));
  const DigestSnapshot valid = source.snapshot();
  ASSERT_GE(valid.centroids.size(), 2u);
  ASSERT_GE(valid.centroids.front().second, 1.0);
  EXPECT_NO_THROW((void)MergingDigest::from_snapshot(valid));

  DigestSnapshot fractional = valid;  // weights still sum to count
  fractional.centroids.front().second += 0.5;
  fractional.centroids.back().second -= 0.5;
  EXPECT_THROW((void)MergingDigest::from_snapshot(fractional),
               sim::ContractViolation);

  DigestSnapshot huge;
  huge.compression = MergingDigest::kDefaultCompression;
  huge.count = std::uint64_t{1} << 53;
  huge.centroids = {{1.0, 0x1p53}};
  EXPECT_THROW((void)MergingDigest::from_snapshot(huge),
               sim::ContractViolation);
  huge.count -= 1;
  huge.centroids = {{1.0, 0x1p53 - 1}};
  EXPECT_NO_THROW((void)MergingDigest::from_snapshot(huge));

  for (const double weight : {0.0, -1.0, std::nan("")}) {
    DigestSnapshot bad;
    bad.compression = MergingDigest::kDefaultCompression;
    bad.count = 1;
    bad.centroids = {{1.0, weight}};
    EXPECT_THROW((void)MergingDigest::from_snapshot(bad),
                 sim::ContractViolation);
  }
}

/// The pre-scratch-buffer MergingDigest, kept as an oracle: compress()
/// gathers every point into a fresh vector, stable-sorts it and writes the
/// compacted list into a second fresh vector. It follows the buffered-merge
/// rule: samples and merged digests' centroids queue as weighted points in
/// one pending buffer, in insertion order, compacted only at 4*compression
/// pending points. The production digest must stay bit-identical to it
/// under any add/merge sequence.
class ReferenceDigest {
 public:
  explicit ReferenceDigest(std::size_t compression)
      : compression_(compression) {}

  void add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sum_sq_ += x * x;
    buffer_.emplace_back(x, 1);
    if (buffer_.size() >= 4 * compression_) compress();
  }

  void merge(ReferenceDigest& other) {
    if (other.count_ == 0) return;
    other.compress();
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    sum_sq_ += other.sum_sq_;
    buffer_.insert(buffer_.end(), other.centroids_.begin(),
                   other.centroids_.end());
    if (buffer_.size() >= 4 * compression_) compress();
  }

  void clear() { *this = ReferenceDigest(compression_); }

  DigestSnapshot snapshot() {
    compress();
    DigestSnapshot snap;
    snap.compression = compression_;
    snap.count = count_;
    snap.sum = sum_;
    snap.sum_sq = sum_sq_;
    snap.min = min_;
    snap.max = max_;
    snap.centroids = centroids_;
    return snap;
  }

 private:
  using Centroid = std::pair<double, double>;  // mean, weight

  void compress() {
    if (buffer_.empty()) return;
    std::vector<Centroid> points;
    points.reserve(centroids_.size() + buffer_.size());
    points.insert(points.end(), centroids_.begin(), centroids_.end());
    points.insert(points.end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
    if (points.empty()) {
      centroids_.clear();
      return;
    }
    std::stable_sort(points.begin(), points.end(),
                     [](const Centroid& a, const Centroid& b) {
                       return a.first < b.first;
                     });
    double total = 0;
    for (const Centroid& p : points) total += p.second;
    const double k_scale =
        static_cast<double>(compression_) / (2.0 * 3.141592653589793);
    const auto k_of = [&](double q) {
      return k_scale * std::asin(std::clamp(2.0 * q - 1.0, -1.0, 1.0));
    };
    std::vector<Centroid> merged;
    Centroid current = points.front();
    double weight_before = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      const Centroid& next = points[i];
      const double proposed = current.second + next.second;
      const double k_left = k_of(weight_before / total);
      const double k_right = k_of((weight_before + proposed) / total);
      if (k_right - k_left <= 1.0) {
        current.first =
            (current.first * current.second + next.first * next.second) /
            proposed;
        current.second = proposed;
      } else {
        weight_before += current.second;
        merged.push_back(current);
        current = next;
      }
    }
    merged.push_back(current);
    centroids_ = std::move(merged);
  }

  std::size_t compression_;
  std::vector<Centroid> centroids_;
  std::vector<Centroid> buffer_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const DigestSnapshot& got,
                          const DigestSnapshot& want) {
  EXPECT_EQ(got.compression, want.compression);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(bits(got.sum), bits(want.sum));
  EXPECT_EQ(bits(got.sum_sq), bits(want.sum_sq));
  EXPECT_EQ(bits(got.min), bits(want.min));
  EXPECT_EQ(bits(got.max), bits(want.max));
  ASSERT_EQ(got.centroids.size(), want.centroids.size());
  for (std::size_t i = 0; i < got.centroids.size(); ++i) {
    EXPECT_EQ(bits(got.centroids[i].first), bits(want.centroids[i].first));
    EXPECT_EQ(bits(got.centroids[i].second), bits(want.centroids[i].second));
  }
}

TEST(MergingDigest, CompressIsBitIdenticalToTheStableSortReference) {
  // Random add / copy-merge / move-merge / snapshot sequences over a small
  // pool of digests, run in lockstep on the production digest and the
  // reference. Half the seeds draw from a coarse lattice so equal means
  // (ties the merge must keep in insertion order) are everywhere; a small
  // compression makes compactions, and thus merges of compacted lists,
  // frequent. The sequences also merge in from_snapshot-restored digests,
  // restore pool digests in place, and merge fresh multi-sample digests, so
  // the k1 pass sees centroids of every integer weight from every source.
  // Seeds 9 and 10 are merge-heavy: most adds become merges of fresh
  // digests, nine in ten of them one-sample (the campaign fold's shape on
  // one-probe shards), so merges alone cross the pending threshold again
  // and again.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u}) {
    sim::Rng rng(seed);
    const bool lattice = seed % 2 == 0;
    const bool merge_heavy = seed >= 9;
    const std::size_t compression = seed <= 2 || seed == 9 ? 8
                                    : seed <= 6 || seed == 10 ? 32
                                                              : 128;
    const auto draw = [&] {
      return lattice ? 0.5 * static_cast<double>(rng.uniform_int(0, 12))
                     : rng.normal(20.0, 5.0);
    };
    constexpr std::size_t kPool = 5;
    // Copy-merges double counts, so pool digests outgrow 2^53 samples after
    // a couple of thousand steps. Past that, double weight sums are no
    // longer exact and from_snapshot refuses the snapshot, so restores stop
    // there while the other actions go on.
    constexpr std::uint64_t kRestorable = std::uint64_t{1} << 53;
    std::vector<MergingDigest> digests(kPool, MergingDigest(compression));
    std::vector<ReferenceDigest> references(kPool,
                                            ReferenceDigest(compression));
    for (int step = 0; step < 4000; ++step) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, kPool - 1));
      std::int64_t action = rng.uniform_int(0, 119);
      if (merge_heavy && action >= 10 && action < 80) {
        action = 110 + action % 10;
      }
      if (action < 80) {
        const double x = draw();
        digests[i].add(x);
        references[i].add(x);
        continue;
      }
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, kPool - 1));
      if (action < 90 && i != j) {
        digests[i].merge(digests[j]);
        references[i].merge(references[j]);
      } else if (action < 96 && i != j) {
        digests[i].merge(std::move(digests[j]));
        references[i].merge(references[j]);
        references[j].clear();
      } else if (action >= 100 && action < 106 && i != j &&
                 digests[j].count() < kRestorable) {
        digests[i].merge(MergingDigest::from_snapshot(digests[j].snapshot()));
        references[i].merge(references[j]);
      } else if (action >= 106 && action < 110 &&
                 digests[i].count() < kRestorable) {
        // snapshot() compacts, so the reference compacts at the same step.
        digests[i] = MergingDigest::from_snapshot(digests[i].snapshot());
        SCOPED_TRACE("seed " + std::to_string(seed) + " restore at step " +
                     std::to_string(step));
        expect_bit_identical(digests[i].snapshot(), references[i].snapshot());
      } else if (action >= 110) {
        MergingDigest fresh(compression);
        ReferenceDigest fresh_reference(compression);
        const auto samples = merge_heavy && rng.uniform_int(0, 9) != 0
                                 ? 1
                                 : rng.uniform_int(2, 6 * compression);
        for (std::int64_t n = 0; n < samples; ++n) {
          const double x = draw();
          fresh.add(x);
          fresh_reference.add(x);
        }
        if (action % 2 == 0) {
          digests[i].merge(fresh);
        } else {
          digests[i].merge(std::move(fresh));
        }
        references[i].merge(fresh_reference);
      } else {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        expect_bit_identical(digests[i].snapshot(), references[i].snapshot());
      }
    }
    for (std::size_t i = 0; i < kPool; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " final digest " +
                   std::to_string(i));
      expect_bit_identical(digests[i].snapshot(), references[i].snapshot());
    }
  }
}

}  // namespace
}  // namespace acute::stats
