#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace aqsios {

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  sum_ += other.sum_;
  sum_squares_ += other.sum_squares_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::L2Norm() const { return std::sqrt(sum_squares_); }

double RunningStats::Rms() const {
  return count_ == 0 ? 0.0 : std::sqrt(sum_squares_ / count_);
}

double RunningStats::Variance() const {
  if (count_ < 2) return 0.0;
  const double mean = Mean();
  return sum_squares_ / count_ - mean * mean;
}

LpNorm::LpNorm(double p) : p_(p) { AQSIOS_CHECK_GE(p, 1.0); }

void LpNorm::Add(double value) {
  ++count_;
  sum_pow_ += std::pow(std::abs(value), p_);
}

double LpNorm::Value() const {
  return count_ == 0 ? 0.0 : std::pow(sum_pow_, 1.0 / p_);
}

ReservoirSample::ReservoirSample(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  AQSIOS_CHECK_GT(capacity, 0u);
  samples_.reserve(capacity);
}

void ReservoirSample::Add(double value) {
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // Vitter's algorithm R: keep each of the first n items with prob k/n.
  const int64_t slot = rng_.UniformInt(0, count_ - 1);
  if (slot < static_cast<int64_t>(capacity_)) {
    samples_[static_cast<size_t>(slot)] = value;
  }
}

double ReservoirSample::Quantile(double q) const {
  AQSIOS_CHECK_GE(q, 0.0);
  AQSIOS_CHECK_LE(q, 1.0);
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

LogHistogram::LogHistogram(double min_value, double base, int num_buckets)
    : min_value_(min_value), log_base_(std::log(base)) {
  AQSIOS_CHECK_GT(min_value, 0.0);
  AQSIOS_CHECK_GT(base, 1.0);
  AQSIOS_CHECK_GT(num_buckets, 0);
  // One extra slot for overflow.
  counts_.assign(static_cast<size_t>(num_buckets) + 1, 0);
}

int LogHistogram::BucketIndex(double value) const {
  if (value <= min_value_) return 0;
  const int index =
      static_cast<int>(std::floor(std::log(value / min_value_) / log_base_));
  return std::min(index, num_buckets() - 1);
}

void LogHistogram::Add(double value) {
  ++counts_[static_cast<size_t>(BucketIndex(value))];
  ++total_;
}

double LogHistogram::BucketLowerEdge(int i) const {
  return min_value_ * std::exp(log_base_ * i);
}

std::string LogHistogram::ToString() const {
  std::ostringstream os;
  for (int i = 0; i < num_buckets(); ++i) {
    if (counts_[static_cast<size_t>(i)] == 0) continue;
    os << "[" << BucketLowerEdge(i) << ", " << BucketLowerEdge(i + 1)
       << "): " << counts_[static_cast<size_t>(i)] << "\n";
  }
  return os.str();
}

}  // namespace aqsios
