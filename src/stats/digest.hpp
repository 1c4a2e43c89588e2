// Bounded-memory streaming quantile digest (t-digest family).
//
// The campaign engine's streaming merge folds every shard's samples into
// one of these instead of buffering raw vectors: memory per digest is
// O(compression) regardless of how many samples are added, accuracy is
// highest at the tails (the quantiles the paper reports), and two digests
// merge associatively, so per-shard digests folded in scenario-index order
// give a deterministic campaign-wide distribution for any worker count.
//
// Deterministic by construction: no randomness anywhere — compression uses
// a stable sort and a fixed scale function, so the resulting centroids are
// a pure function of the insertion sequence, and the insertion sequence in
// a campaign is a pure function of (spec, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace acute::stats {

/// Exact structural state of a MergingDigest, for checkpoint serialization:
/// restoring a snapshot yields a digest whose observable state AND whose
/// behavior under further merge()s is bit-identical to the source (the
/// campaign resume contract). Centroids are {mean, weight} in ascending-mean
/// order, already under the k1 compaction bound.
struct DigestSnapshot {
  std::size_t compression = 0;
  std::uint64_t count = 0;
  double sum = 0;
  double sum_sq = 0;
  double min = 0;
  double max = 0;
  std::vector<std::pair<double, double>> centroids;
};

/// Mergeable t-digest using the k1 (arcsine) scale function: each centroid
/// spans at most one unit of k(q) = (compression/2π)·asin(2q−1), so the
/// compacted centroid count is bounded by compression+1 for ANY number of
/// samples, while the distribution tails keep sample-sized centroids.
/// count/sum/min/max are tracked exactly.
///
/// add() and merge() only append to a pending buffer of weighted points (a
/// sample is a unit-weight point, a merged digest contributes its compacted
/// centroids); the buffer is compacted into the centroid list once it holds
/// 4*compression points. So a one-sample merge into a campaign digest is an
/// append, not a compaction (Dunning & Ertl, arXiv:1902.04023).
class MergingDigest {
 public:
  /// Default compression: ~128 centroids ≈ <1% quantile error mid-range,
  /// exact extremes. At 16 B per point a digest holds at most
  /// (compression+1) compacted centroids plus 4*compression pending points,
  /// ~10 KiB at the default; a compaction merges the two in the centroid
  /// list's storage, which keeps that capacity (~18 KiB in all).
  static constexpr std::size_t kDefaultCompression = 128;
  /// Largest accepted compression. Nothing is reserved up front; the cap
  /// bounds the pending buffer (4*compression points) and so what a digest
  /// parsed from untrusted text can grow to once things are merged into it
  /// (~150 KiB). The campaign writes only 128.
  static constexpr std::size_t kMaxCompression = 1024;

  /// Contract violation unless 8 <= compression <= kMaxCompression.
  /// Allocates nothing.
  explicit MergingDigest(std::size_t compression = kDefaultCompression);

  /// Adds one sample. Amortized O(1): appends a unit-weight point and
  /// compacts when 4*compression points are pending.
  void add(double x);

  /// Folds `other` into this digest: compacts `other`, then appends its
  /// centroids to the pending buffer as weighted points, under the same
  /// 4*compression threshold as add(). Equivalent (within the digest's
  /// accuracy) to having added other's samples; deterministic given the
  /// merge order. Because the donor is always compacted first, merging a
  /// digest or its from_snapshot() restoration gives the same bits.
  void merge(const MergingDigest& other);

  /// Consuming merge: bit-identical to merge(const&), but when this digest
  /// is still empty (the first shard folded into a campaign-level slot) it
  /// adopts other's compacted centroid storage as its pending buffer instead
  /// of copying it. Compaction triggers on the number of pending points, not
  /// on any capacity, so adoption cannot move a compaction point. `other` is
  /// left empty-but-valid with its storage released.
  void merge(MergingDigest&& other);

  /// Number of samples added (exact).
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// True when no sample has been added.
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Mean of all samples (exact: tracked as a running sum).
  [[nodiscard]] double mean() const;
  /// Sample (n-1) standard deviation, from an exactly-tracked sum of
  /// squares (fine at millisecond scale; not Welford-grade for values with
  /// huge mean/variance ratios). 0 for fewer than two samples.
  [[nodiscard]] double stddev() const;
  /// Smallest / largest sample (exact). Require a non-empty digest.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Approximate quantile, q in [0, 1]; q=0/1 return the exact extremes.
  /// Requires a non-empty digest. Compacts pending points first (see the
  /// note on compaction points below).
  [[nodiscard]] double quantile(double q) const;

  /// Approximate CDF: fraction of samples <= x. Compacts first.
  [[nodiscard]] double cdf(double x) const;

  /// Centroids held after compacting pending points (<= max_centroids();
  /// the memory-bound tests assert on this).
  [[nodiscard]] std::size_t centroid_count() const;
  /// Hard ceiling on centroid_count() after compaction, for any sample
  /// count: the k1 bound yields at most compression+1 centroids; 2x is a
  /// comfortable structural margin.
  [[nodiscard]] std::size_t max_centroids() const { return 2 * compression_; }

  /// The compression parameter this digest was built with.
  [[nodiscard]] std::size_t compression() const { return compression_; }

  /// Exact serializable state (compacts first, so the snapshot is canonical:
  /// snapshotting twice, or snapshotting a restored digest, is idempotent).
  [[nodiscard]] DigestSnapshot snapshot() const;
  /// Rebuilds a digest from snapshot(); bit-identical observable state.
  /// Contract violation on structurally invalid snapshots (compression
  /// outside [8, kMaxCompression], unsorted centroids, a weight that is not
  /// an integer in [1, 2^53), weight/count mismatch). Integer weights are
  /// what keeps compress()'s running sums exact.
  [[nodiscard]] static MergingDigest from_snapshot(const DigestSnapshot& snap);

 private:
  struct Centroid {
    double mean = 0;
    double weight = 0;
  };

  /// Merges the pending points into the centroid list (order by mean with
  /// ties in insertion order, compacted centroids before pending points,
  /// then one in-place pass under the k1 bound). Allocates nothing once the
  /// vectors have grown, unless the pending points arrived out of order and
  /// need a stable sort.
  void compress() const;

  std::size_t compression_;
  // The const reads (quantile/cdf/centroid_count/snapshot) compact in place,
  // and a compaction point is observable: it decides which points share a
  // centroid from then on. So reading a digest mid-stream changes the bits
  // of everything merged after. Campaign digests are read only after the
  // fold, through WorkloadFold::snapshot() copies; a live progress read of
  // a campaign quantile must likewise read a copy, or the merged bits would
  // depend on when it ran.
  mutable std::vector<Centroid> centroids_;  // compacted, by ascending mean
  mutable std::vector<Centroid> buffer_;     // pending, insertion order
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace acute::stats
