// Streaming statistics accumulators used by the QoS metric collectors.

#ifndef AQSIOS_COMMON_STATS_H_
#define AQSIOS_COMMON_STATS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace aqsios {

/// Single-pass accumulator for count / mean / min / max / l2 norm.
///
/// The l2 norm follows the paper's Definition 4: sqrt(sum of squares), i.e.
/// it grows with N; it is not normalized by the count.
class RunningStats {
 public:
  RunningStats() = default;

  // Defined inline below: every emitted tuple adds to two or three of these.
  void Add(double value);

  /// Merges another accumulator into this one.
  void Merge(const RunningStats& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double sum_squares() const { return sum_squares_; }

  /// Arithmetic mean; 0 when empty.
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }

  /// Max observed value; 0 when empty.
  double Max() const { return count_ == 0 ? 0.0 : max_; }

  /// Min observed value; 0 when empty.
  double Min() const { return count_ == 0 ? 0.0 : min_; }

  /// l2 norm, sqrt(sum x_i^2) (Definition 4 of the paper).
  double L2Norm() const;

  /// Root mean square, L2Norm()/sqrt(N); useful for size-independent
  /// comparisons across runs with different tuple counts.
  double Rms() const;

  /// Population variance; 0 when fewer than 2 samples.
  double Variance() const;

 private:
  int64_t count_ = 0;
  double sum_ = 0.0;
  double sum_squares_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

inline void RunningStats::Add(double value) {
  ++count_;
  sum_ += value;
  sum_squares_ += value * value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

/// Accumulates the generalized lp norm (sum |x|^p)^(1/p). p must be >= 1.
/// p = 1 gives the total, p = 2 the paper's l2 metric; large p approaches the
/// max. Used by the lp-norm ablation benches.
class LpNorm {
 public:
  explicit LpNorm(double p);

  void Add(double value);

  double p() const { return p_; }
  int64_t count() const { return count_; }
  double Value() const;

 private:
  double p_;
  int64_t count_ = 0;
  double sum_pow_ = 0.0;
};

/// Fixed-size uniform reservoir sample for quantile estimates over a stream.
class ReservoirSample {
 public:
  ReservoirSample(size_t capacity, uint64_t seed);

  void Add(double value);

  int64_t count() const { return count_; }
  size_t size() const { return samples_.size(); }

  /// Approximate q-quantile (q in [0,1]) from the reservoir; 0 when empty.
  /// Cost: O(k log k) sort per call.
  double Quantile(double q) const;

 private:
  size_t capacity_;
  int64_t count_ = 0;
  std::vector<double> samples_;
  Rng rng_;
};

/// Histogram over log-spaced buckets: bucket i covers
/// [min_value * base^i, min_value * base^(i+1)). Values below min_value fall
/// into bucket 0; values beyond the last bucket go into the overflow bucket.
class LogHistogram {
 public:
  LogHistogram(double min_value, double base, int num_buckets);

  void Add(double value);

  int num_buckets() const { return static_cast<int>(counts_.size()); }
  int64_t bucket_count(int i) const { return counts_[i]; }
  int64_t total() const { return total_; }

  /// Lower edge of bucket i.
  double BucketLowerEdge(int i) const;

  /// Renders the histogram as an ASCII table, one line per non-empty bucket.
  std::string ToString() const;

 private:
  int BucketIndex(double value) const;

  double min_value_;
  double log_base_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace aqsios

#endif  // AQSIOS_COMMON_STATS_H_
