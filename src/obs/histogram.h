// HDR-style log-bucketed histogram with deterministic quantiles.
//
// The QoS reservoir sample the collector used before this subsystem gave
// seed-dependent p50/p99 estimates; regression tracking wants quantiles that
// are a pure function of the recorded values. This histogram uses geometric
// ("HDR-style") buckets: bucket i >= 1 covers
//
//   [min_value * growth^(i-1), min_value * growth^i)
//
// so the relative quantile error is bounded by (growth - 1) regardless of
// the value range; bucket 0 catches everything below min_value (including
// exact zeros). Values past the last bucket are clamped into it and counted
// as overflow. Recording is O(1), memory is bounded by max_buckets, and both
// recording and Quantile() are deterministic — no seed, no sampling.

#ifndef AQSIOS_OBS_HISTOGRAM_H_
#define AQSIOS_OBS_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace aqsios::obs {

struct HistogramOptions {
  /// Lower edge of the first geometric bucket; values below it (including
  /// 0) land in the dedicated underflow bucket 0.
  double min_value = 1e-6;
  /// Geometric growth per bucket (> 1). The default 2^(1/16) bounds the
  /// relative quantile error at ~4.4% per bucket.
  double growth = 1.0442737824274138;  // 2^(1/16)
  /// Hard cap on allocated buckets; with the defaults 656 buckets span
  /// min_value * 2^40. Values beyond the cap clamp into the last bucket.
  int max_buckets = 656;
};

/// Summary statistics of a histogram, cheap to copy into result structs.
/// The quantile set matches QosSnapshot (p50/p95/p99/p999) so every exported
/// distribution speaks the same language.
struct HistogramSummary {
  int64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

class Histogram {
 public:
  Histogram() : Histogram(HistogramOptions()) {}
  explicit Histogram(const HistogramOptions& options);

  // Defined inline below: recording runs once or twice per scheduling point
  // (~10^6/s in a sweep cell), so it must not pay a call.
  void Add(double value);

  /// The bucket `value` lands in: 0 below min_value, the last bucket for
  /// values past the range and for NaN, and otherwise the largest k with
  /// edges_[k] <= value. One table read and at most one edge comparison.
  int BucketIndex(double value) const;

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double Min() const { return count_ == 0 ? 0.0 : min_; }
  double Max() const { return count_ == 0 ? 0.0 : max_; }
  /// Values clamped into the last bucket because they exceeded the range.
  int64_t overflow() const { return overflow_; }

  /// Allocated buckets (lazily grown up to options.max_buckets).
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  int64_t bucket_count(int i) const {
    return counts_[static_cast<size_t>(i)];
  }
  /// Lower edge of bucket i (0 for the underflow bucket 0).
  double BucketLowerEdge(int i) const;
  /// Upper edge of bucket i.
  double BucketUpperEdge(int i) const;

  /// Deterministic q-quantile (q in [0,1]): finds the bucket holding the
  /// target rank, interpolates linearly inside it, and clamps to the exact
  /// observed [Min, Max]. 0 when empty.
  double Quantile(double q) const;

  HistogramSummary Summarize() const;

  /// Merges another histogram recorded with identical options.
  void Merge(const Histogram& other);

  /// ASCII rendering, one line per non-empty bucket (debug/inspect aid).
  std::string ToString() const;

 private:
  /// A value's sub-octave: its exponent and the top mantissa bits above
  /// sub_octave_shift_ (for positive doubles the keys order like the
  /// values).
  uint64_t SubOctave(double value) const {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits >> sub_octave_shift_;
  }

  HistogramOptions options_;
  double log_growth_ = 0.0;
  /// edges_[k] is the smallest value bucket k >= 1 takes (edges_[0] = 0);
  /// a +infinity sentinel follows the last bucket's edge.
  std::vector<double> edges_;
  /// first_bucket_[s - first_sub_octave_] is the bucket of the smallest
  /// value >= min_value in sub-octave s, for every sub-octave from
  /// min_value's through the last edge's. Sub-octaves split each octave
  /// finely enough (64 ways for any growth > 1 + 2^-5, the default
  /// included; finer for tighter growth) that each holds at most one edge:
  /// a value's bucket is its sub-octave's first bucket, or the next one if
  /// it reaches the next edge.
  std::vector<uint16_t> first_bucket_;
  uint64_t first_sub_octave_ = 0;
  int sub_octave_shift_ = 46;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t overflow_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

inline int Histogram::BucketIndex(double value) const {
  if (value < options_.min_value) return 0;
  // Unsigned: NaN (either sign) and values past the last edge's sub-octave
  // fall off the table's end into the last bucket.
  const uint64_t slot = SubOctave(value) - first_sub_octave_;
  if (slot >= first_bucket_.size()) return options_.max_buckets - 1;
  const int index = first_bucket_[slot];
  return index + (value >= edges_[static_cast<size_t>(index) + 1] ? 1 : 0);
}

inline void Histogram::Add(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const int index = BucketIndex(value);
  if (index == options_.max_buckets - 1 &&
      value >= BucketUpperEdge(index)) {
    ++overflow_;
  }
  if (index >= num_buckets()) counts_.resize(static_cast<size_t>(index) + 1);
  ++counts_[static_cast<size_t>(index)];
}

}  // namespace aqsios::obs

#endif  // AQSIOS_OBS_HISTOGRAM_H_
