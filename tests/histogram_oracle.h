// Reference bucket index for obs::Histogram.
//
// This is the bucket lookup obs::Histogram used before its sub-octave
// table: log2 of the value from its exponent bits plus a 64-entry mantissa
// table, scaled to an estimated bucket, then walked up or down against the
// bucket edges. It survives here only as the oracle the table lookup is
// checked against (tests/obs_histogram_test.cc).

#ifndef AQSIOS_TESTS_HISTOGRAM_ORACLE_H_
#define AQSIOS_TESTS_HISTOGRAM_ORACLE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "obs/histogram.h"

namespace aqsios::obs::testing {

class ReferenceBucketIndex {
 public:
  explicit ReferenceBucketIndex(const HistogramOptions& options)
      : options_(options) {
    // The same edge expression as obs::Histogram, so both read identical
    // doubles: edges_[k] is the smallest value the formula
    // `1 + floor(log(v/min)/log(growth) + 1e-9)` maps to bucket k.
    const double log_growth = std::log(options.growth);
    inv_log2_growth_ = 1.0 / std::log2(options.growth);
    log2_min_ = std::log2(options.min_value);
    edges_.resize(static_cast<size_t>(options.max_buckets));
    edges_[0] = 0.0;
    for (int k = 1; k < options.max_buckets; ++k) {
      edges_[static_cast<size_t>(k)] =
          options.min_value * std::exp(log_growth * (k - 1 - 1e-9));
    }
    for (int i = 0; i < 64; ++i) {
      log2_mantissa_[static_cast<size_t>(i)] =
          std::log2(1.0 + (static_cast<double>(i) + 0.5) / 64.0);
    }
  }

  const std::vector<double>& edges() const { return edges_; }

  int operator()(double value) const {
    if (value < options_.min_value) return 0;
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
    const double log2_value =
        static_cast<double>(exponent) + log2_mantissa_[(bits >> 46) & 63];
    const int last = options_.max_buckets - 1;
    // Clamp while still a double (the scaled offset can exceed int range);
    // the negated comparison also pins NaN into the last bucket.
    const double scaled =
        (log2_value - log2_min_) * inv_log2_growth_ + 1e-9;
    int index;
    if (!(scaled < static_cast<double>(last))) {
      index = last;
    } else {
      index = std::clamp(1 + static_cast<int>(scaled), 1, last);
    }
    while (index < last && value >= edges_[static_cast<size_t>(index) + 1]) {
      ++index;
    }
    while (index > 1 && value < edges_[static_cast<size_t>(index)]) --index;
    return index;
  }

 private:
  HistogramOptions options_;
  double inv_log2_growth_ = 0.0;
  double log2_min_ = 0.0;
  std::vector<double> edges_;
  std::array<double, 64> log2_mantissa_{};
};

}  // namespace aqsios::obs::testing

#endif  // AQSIOS_TESTS_HISTOGRAM_ORACLE_H_
