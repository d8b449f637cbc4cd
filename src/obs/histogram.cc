#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/check.h"

namespace aqsios::obs {

Histogram::Histogram(const HistogramOptions& options) : options_(options) {
  AQSIOS_CHECK_GT(options.min_value, 0.0);
  AQSIOS_CHECK_GT(options.growth, 1.0);
  AQSIOS_CHECK_GE(options.max_buckets, 2);
  AQSIOS_CHECK_LE(options.max_buckets,
                  std::numeric_limits<uint16_t>::max());
  log_growth_ = std::log(options.growth);
  // edges_[k] is the smallest value the formula
  // `1 + floor(log(v/min)/log(growth) + 1e-9)` maps to bucket k (up to the
  // last-ulp rounding of the edge itself); a value's bucket is the largest
  // k with edges_[k] <= v.
  const int last = options.max_buckets - 1;
  edges_.resize(static_cast<size_t>(options.max_buckets) + 1);
  edges_[0] = 0.0;
  for (int k = 1; k <= last; ++k) {
    edges_[static_cast<size_t>(k)] =
        options.min_value * std::exp(log_growth_ * (k - 1 - 1e-9));
  }
  edges_[static_cast<size_t>(last) + 1] =
      std::numeric_limits<double>::infinity();

  // One entry per sub-octave from min_value's through the last edge's: the
  // bucket of the sub-octave's smallest value >= min_value. Past the last
  // edge's sub-octave every value is in the last bucket. A sub-octave of m
  // mantissa bits spans a ratio of at most 1 + 2^-m; at most half a bucket
  // keeps each to one edge whatever the edges' last-ulp rounding.
  int mantissa_bits = 6;
  while (std::ldexp(1.0, -mantissa_bits) >= (options.growth - 1.0) / 2.0) {
    ++mantissa_bits;
  }
  AQSIOS_CHECK_LE(mantissa_bits, 52) << "growth too close to 1";
  sub_octave_shift_ = 52 - mantissa_bits;
  first_sub_octave_ = SubOctave(options.min_value);
  const uint64_t last_sub_octave = SubOctave(
      std::min(edges_[static_cast<size_t>(last)],
               std::numeric_limits<double>::max()));
  first_bucket_.resize(
      static_cast<size_t>(last_sub_octave - first_sub_octave_ + 1));
  int bucket = 1;
  for (uint64_t s = first_sub_octave_; s <= last_sub_octave; ++s) {
    const uint64_t start_bits = s << sub_octave_shift_;
    double start;
    std::memcpy(&start, &start_bits, sizeof(start));
    start = std::max(start, options.min_value);
    while (bucket < last &&
           edges_[static_cast<size_t>(bucket) + 1] <= start) {
      ++bucket;
    }
    first_bucket_[static_cast<size_t>(s - first_sub_octave_)] =
        static_cast<uint16_t>(bucket);
    // The one-comparison lookup is exact only if the sub-octave ends before
    // the edge after next.
    const uint64_t end_bits = (s + 1) << sub_octave_shift_;
    double end;
    std::memcpy(&end, &end_bits, sizeof(end));
    AQSIOS_CHECK(bucket + 2 > last ||
                 edges_[static_cast<size_t>(bucket) + 2] >= end)
        << "two bucket edges in one sub-octave";
  }
}

double Histogram::BucketLowerEdge(int i) const {
  if (i <= 0) return 0.0;
  return options_.min_value * std::exp(log_growth_ * (i - 1));
}

double Histogram::BucketUpperEdge(int i) const {
  return options_.min_value * std::exp(log_growth_ * i);
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, count]: the ceil makes Quantile(0.5) of {a, b} pick
  // a, matching nearest-rank semantics.
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))));
  int64_t cumulative = 0;
  for (int i = 0; i < num_buckets(); ++i) {
    const int64_t in_bucket = counts_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      // Linear interpolation inside the bucket by rank fraction.
      const double fraction =
          static_cast<double>(target - cumulative) /
          static_cast<double>(in_bucket);
      const double lower = BucketLowerEdge(i);
      const double upper = BucketUpperEdge(i);
      const double value = lower + (upper - lower) * fraction;
      return std::clamp(value, min_, max_);
    }
    cumulative += in_bucket;
  }
  return max_;
}

HistogramSummary Histogram::Summarize() const {
  HistogramSummary summary;
  summary.count = count_;
  summary.mean = Mean();
  summary.min = Min();
  summary.max = Max();
  summary.p50 = Quantile(0.5);
  summary.p95 = Quantile(0.95);
  summary.p99 = Quantile(0.99);
  summary.p999 = Quantile(0.999);
  return summary;
}

void Histogram::Merge(const Histogram& other) {
  AQSIOS_CHECK(options_.min_value == other.options_.min_value &&
               options_.growth == other.options_.growth &&
               options_.max_buckets == other.options_.max_buckets)
      << "histograms with different bucket layouts cannot be merged";
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  overflow_ += other.overflow_;
  sum_ += other.sum_;
  if (other.num_buckets() > num_buckets()) {
    counts_.resize(other.counts_.size());
  }
  for (int i = 0; i < other.num_buckets(); ++i) {
    counts_[static_cast<size_t>(i)] +=
        other.counts_[static_cast<size_t>(i)];
  }
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < num_buckets(); ++i) {
    const int64_t n = counts_[static_cast<size_t>(i)];
    if (n == 0) continue;
    os << "[" << BucketLowerEdge(i) << ", " << BucketUpperEdge(i)
       << "): " << n << "\n";
  }
  return os.str();
}

}  // namespace aqsios::obs
