#include "stats/digest.hpp"

#include <algorithm>
#include <cmath>

#include "sim/contracts.hpp"

namespace acute::stats {

using sim::expects;

MergingDigest::MergingDigest(std::size_t compression)
    : compression_(compression) {
  expects(compression_ >= 8 && compression_ <= kMaxCompression,
          "MergingDigest compression must be in [8, kMaxCompression]");
}

void MergingDigest::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  sum_sq_ += x * x;
  buffer_.push_back(Centroid{x, 1});
  if (buffer_.size() >= 4 * compression_) compress();
}

void MergingDigest::merge(const MergingDigest& other) {
  if (other.count_ == 0) return;
  // A self-merge is safe too: after compress() the appended range is
  // centroids_, which the insert into buffer_ never reallocates.
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

void MergingDigest::merge(MergingDigest&& other) {
  if (&other == this) {
    merge(static_cast<const MergingDigest&>(other));
    return;
  }
  if (count_ != 0 || compression_ != other.compression_) {
    merge(static_cast<const MergingDigest&>(other));
  } else if (other.count_ != 0) {
    // Into an empty digest, merge(const&) leaves exactly other's compacted
    // centroids pending, so adopting that storage as the buffer is the same
    // state without the copy.
    other.compress();
    buffer_ = std::move(other.centroids_);
    if (buffer_.size() >= 4 * compression_) compress();
    count_ = other.count_;
    sum_ = other.sum_;
    sum_sq_ = other.sum_sq_;
    min_ = other.min_;
    max_ = other.max_;
  }
  // Leave `other` empty-but-valid with released heap storage either way —
  // the frontier fold relies on the donor shrinking to its footprint floor.
  other.centroids_ = {};
  other.buffer_ = {};
  other.count_ = 0;
  other.sum_ = 0;
  other.sum_sq_ = 0;
  other.min_ = 0;
  other.max_ = 0;
}

void MergingDigest::compress() const {
  if (buffer_.empty()) return;

  // Order the points by mean, ties in insertion order with the compacted
  // centroids first, so the compaction is a pure function of the insertion
  // sequence: a stable sort of centroids_ followed by buffer_. The pending
  // points are sorted on their own (one-sample merges and tiny donors are
  // often in order already), and a stable merge of two ascending runs *is*
  // their stable sort, done here backwards in centroids_'s own storage.
  // A compacted list that rounding left non-monotone takes the whole-list
  // stable_sort instead.
  const auto by_mean = [](const Centroid& a, const Centroid& b) {
    return a.mean < b.mean;
  };
  if (!std::is_sorted(buffer_.begin(), buffer_.end(), by_mean)) {
    std::stable_sort(buffer_.begin(), buffer_.end(), by_mean);
  }
  if (centroids_.empty()) {
    centroids_.swap(buffer_);
  } else if (std::is_sorted(centroids_.begin(), centroids_.end(), by_mean)) {
    std::size_t left = centroids_.size();
    std::size_t right = buffer_.size();
    centroids_.resize(left + right);
    // Fill from the back: a pending point goes after every centroid that
    // is not strictly greater, so equal means keep centroids first.
    for (std::size_t out = left + right; right > 0;) {
      if (left > 0 && by_mean(buffer_[right - 1], centroids_[left - 1])) {
        centroids_[--out] = centroids_[--left];
      } else {
        centroids_[--out] = buffer_[--right];
      }
    }
  } else {
    centroids_.insert(centroids_.end(), buffer_.begin(), buffer_.end());
    std::stable_sort(centroids_.begin(), centroids_.end(), by_mean);
  }
  buffer_.clear();

  double total = 0;
  for (const Centroid& p : centroids_) total += p.weight;

  // k1 scale function (Dunning's merging t-digest): a centroid may span at
  // most one unit of k(q) = (δ/2π)·asin(2q−1). The full k range is δ/2 and
  // closing a centroid means extending it would overflow its unit, so the
  // compacted list holds at most δ+1 centroids — the structural bound
  // max_centroids() advertises (with margin). asin's steep ends give the
  // distribution tails sample-sized centroids.
  const double k_scale =
      static_cast<double>(compression_) / (2.0 * 3.141592653589793);
  const auto k_of = [&](double q) {
    return k_scale * std::asin(std::clamp(2.0 * q - 1.0, -1.0, 1.0));
  };

  // One pass, compacting in place: every closed centroid consumed at least
  // one point, so the write position never passes the read position.
  //
  // One asin per point: k_right, computed at every step, is k at the right
  // edge of `current` after that step (a merge grows `current` to exactly
  // that edge; a close makes `next` current, whose right edge is the same
  // sum). So when a centroid closes, the new k_left is the k_right of the
  // step before — kept in k_edge instead of recomputed. The sums agree bit
  // for bit because weights are integer sample counts held in doubles:
  // below 2^53, (wb + C) + N == wb + (C + N) exactly (from_snapshot
  // enforces integer weights for restored digests).
  std::size_t closed = 0;
  Centroid current = centroids_.front();
  double weight_before = 0;  // total weight strictly left of `current`
  double k_left = k_of(weight_before / total);
  double k_edge = k_of((weight_before + current.weight) / total);
  for (std::size_t i = 1; i < centroids_.size(); ++i) {
    const Centroid next = centroids_[i];
    const double proposed = current.weight + next.weight;
    const double k_right = k_of((weight_before + proposed) / total);
    if (k_right - k_left <= 1.0) {
      // Weighted average; weights are sample counts, so this is the exact
      // mean of the union.
      current.mean =
          (current.mean * current.weight + next.mean * next.weight) /
          proposed;
      current.weight = proposed;
    } else {
      weight_before += current.weight;
      centroids_[closed++] = current;
      current = next;
      k_left = k_edge;
    }
    k_edge = k_right;
  }
  centroids_[closed++] = current;
  centroids_.resize(closed);
}

DigestSnapshot MergingDigest::snapshot() const {
  compress();
  DigestSnapshot snap;
  snap.compression = compression_;
  snap.count = count_;
  snap.sum = sum_;
  snap.sum_sq = sum_sq_;
  snap.min = min_;
  snap.max = max_;
  snap.centroids.reserve(centroids_.size());
  for (const Centroid& c : centroids_) {
    snap.centroids.emplace_back(c.mean, c.weight);
  }
  return snap;
}

MergingDigest MergingDigest::from_snapshot(const DigestSnapshot& snap) {
  MergingDigest digest(snap.compression);
  digest.centroids_.reserve(snap.centroids.size());
  double total_weight = 0;
  double prev_mean = 0;
  for (std::size_t i = 0; i < snap.centroids.size(); ++i) {
    const auto& [mean, weight] = snap.centroids[i];
    expects(weight >= 1 && weight < 0x1p53 && weight == std::floor(weight),
            "DigestSnapshot centroid weights must be integers in [1, 2^53)");
    expects(i == 0 || mean >= prev_mean,
            "DigestSnapshot centroids must be in ascending-mean order");
    prev_mean = mean;
    total_weight += weight;
    digest.centroids_.push_back(Centroid{mean, weight});
  }
  // Weights are sample counts (integers held in doubles): the sum is exact
  // below 2^53 samples, so equality is the right check.
  expects(total_weight == static_cast<double>(snap.count),
          "DigestSnapshot centroid weights must sum to count");
  digest.count_ = snap.count;
  digest.sum_ = snap.sum;
  digest.sum_sq_ = snap.sum_sq;
  digest.min_ = snap.min;
  digest.max_ = snap.max;
  // snapshot() compacts before exporting, so the restored list is the
  // source's compacted list with nothing pending: a later merge() sees the
  // same state the source digest would have presented.
  return digest;
}

double MergingDigest::mean() const {
  expects(count_ > 0, "MergingDigest::mean on an empty digest");
  return sum_ / static_cast<double>(count_);
}

double MergingDigest::stddev() const {
  if (count_ < 2) return 0;
  const double n = static_cast<double>(count_);
  const double variance =
      std::max(0.0, (sum_sq_ - sum_ * sum_ / n) / (n - 1));
  return std::sqrt(variance);
}

double MergingDigest::min() const {
  expects(count_ > 0, "MergingDigest::min on an empty digest");
  return min_;
}

double MergingDigest::max() const {
  expects(count_ > 0, "MergingDigest::max on an empty digest");
  return max_;
}

std::size_t MergingDigest::centroid_count() const {
  compress();
  return centroids_.size();
}

double MergingDigest::quantile(double q) const {
  expects(count_ > 0, "MergingDigest::quantile on an empty digest");
  expects(q >= 0.0 && q <= 1.0, "MergingDigest::quantile requires q in [0,1]");
  compress();
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  // Walk centroids treating each as centred at its midpoint; interpolate
  // linearly between adjacent centroid means, clamped by the exact extremes.
  double cumulative = 0;
  for (std::size_t i = 0; i < centroids_.size(); ++i) {
    const Centroid& c = centroids_[i];
    const double center = cumulative + c.weight / 2;
    if (target <= center) {
      if (i == 0) {
        const double span = center;  // from min_ (rank 0) to first center
        const double t = span > 0 ? target / span : 1.0;
        return min_ + t * (c.mean - min_);
      }
      const Centroid& prev = centroids_[i - 1];
      const double prev_center = cumulative - prev.weight / 2;
      const double t = (target - prev_center) / (center - prev_center);
      return prev.mean + t * (c.mean - prev.mean);
    }
    cumulative += c.weight;
  }
  const Centroid& last = centroids_.back();
  const double last_center =
      static_cast<double>(count_) - last.weight / 2;
  const double span = static_cast<double>(count_) - last_center;
  const double t = span > 0 ? (target - last_center) / span : 1.0;
  return last.mean + t * (max_ - last.mean);
}

double MergingDigest::cdf(double x) const {
  if (count_ == 0) return 0;
  compress();
  if (x < min_) return 0;
  if (x >= max_) return 1;
  double cumulative = 0;
  double prev_mean = min_;
  double prev_center = 0;
  for (const Centroid& c : centroids_) {
    const double center = cumulative + c.weight / 2;
    if (x < c.mean) {
      const double span = c.mean - prev_mean;
      const double t = span > 0 ? (x - prev_mean) / span : 1.0;
      return (prev_center + t * (center - prev_center)) /
             static_cast<double>(count_);
    }
    cumulative += c.weight;
    prev_mean = c.mean;
    prev_center = center;
  }
  const double span = max_ - prev_mean;
  const double t = span > 0 ? (x - prev_mean) / span : 1.0;
  return (prev_center + t * (static_cast<double>(count_) - prev_center)) /
         static_cast<double>(count_);
}

}  // namespace acute::stats
