#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "histogram_oracle.h"
#include "obs/registry.h"

namespace aqsios::obs {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
}

TEST(HistogramTest, ZerosAndNegativesLandInUnderflowBucket) {
  Histogram histogram({.min_value = 1.0});
  histogram.Add(0.0);
  histogram.Add(-3.0);
  histogram.Add(0.5);
  EXPECT_EQ(histogram.count(), 3);
  EXPECT_EQ(histogram.bucket_count(0), 3);
  EXPECT_DOUBLE_EQ(histogram.BucketLowerEdge(0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.BucketUpperEdge(0), 1.0);
}

TEST(HistogramTest, BucketEdgesAreGeometric) {
  Histogram histogram({.min_value = 1.0, .growth = 2.0, .max_buckets = 8});
  histogram.Add(1.0);   // [1, 2)    -> bucket 1
  histogram.Add(3.0);   // [2, 4)    -> bucket 2
  histogram.Add(5.0);   // [4, 8)    -> bucket 3
  histogram.Add(7.9);   // [4, 8)    -> bucket 3
  EXPECT_EQ(histogram.bucket_count(1), 1);
  EXPECT_EQ(histogram.bucket_count(2), 1);
  EXPECT_EQ(histogram.bucket_count(3), 2);
  EXPECT_DOUBLE_EQ(histogram.BucketLowerEdge(1), 1.0);
  EXPECT_DOUBLE_EQ(histogram.BucketUpperEdge(1), 2.0);
  EXPECT_DOUBLE_EQ(histogram.BucketLowerEdge(3), 4.0);
  EXPECT_DOUBLE_EQ(histogram.BucketUpperEdge(3), 8.0);
}

TEST(HistogramTest, ValuesBeyondRangeClampIntoLastBucketAsOverflow) {
  Histogram histogram({.min_value = 1.0, .growth = 2.0, .max_buckets = 4});
  histogram.Add(1e12);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_EQ(histogram.overflow(), 1);
  EXPECT_EQ(histogram.bucket_count(histogram.num_buckets() - 1), 1);
  // Min/Max still track the exact observed values.
  EXPECT_DOUBLE_EQ(histogram.Max(), 1e12);
}

TEST(HistogramTest, ExtremeValuesSaturateIntoLastBucket) {
  // 1e300 and infinity push the scaled bucket offset far outside int range;
  // the index must saturate into the last bucket (counted as overflow)
  // instead of reaching the undefined double-to-int conversion.
  Histogram histogram({.min_value = 1.0, .growth = 2.0, .max_buckets = 8});
  histogram.Add(1e300);
  histogram.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_EQ(histogram.overflow(), 2);
  EXPECT_EQ(histogram.bucket_count(7), 2);
  EXPECT_DOUBLE_EQ(histogram.Max(),
                   std::numeric_limits<double>::infinity());
  // The saturated histogram still quantiles deterministically.
  EXPECT_GE(histogram.Quantile(0.99), histogram.BucketLowerEdge(7));
}

TEST(HistogramTest, TightGrowthDoesNotOverflowTheIndex) {
  // A growth barely above 1 makes 1/log2(growth) enormous (~7e6 here), so a
  // large value scales to an offset way past INT_MAX. The pre-cast clamp
  // must absorb it; without it the conversion itself is undefined.
  Histogram histogram(
      {.min_value = 1.0, .growth = 1.0000001, .max_buckets = 16});
  histogram.Add(1e12);
  histogram.Add(1e300);
  EXPECT_EQ(histogram.count(), 2);
  EXPECT_EQ(histogram.overflow(), 2);
  EXPECT_EQ(histogram.bucket_count(15), 2);
}

TEST(HistogramTest, ExactLastBucketLowerEdgeIsNotOverflow) {
  // growth=2, max_buckets=4: the last bucket 3 covers [4, 8). Its lower
  // edge is in range (not overflow); its upper edge is the first value that
  // clamps and counts as overflow.
  Histogram histogram({.min_value = 1.0, .growth = 2.0, .max_buckets = 4});
  histogram.Add(4.0);
  EXPECT_EQ(histogram.overflow(), 0);
  EXPECT_EQ(histogram.bucket_count(3), 1);
  histogram.Add(8.0);
  EXPECT_EQ(histogram.overflow(), 1);
  EXPECT_EQ(histogram.bucket_count(3), 2);
  histogram.Add(7.9999999);
  EXPECT_EQ(histogram.overflow(), 1);
  EXPECT_EQ(histogram.bucket_count(3), 3);
}

TEST(HistogramTest, MergeAfterLazyResizeExtendsTheShorterSide) {
  // Buckets grow lazily with the largest recorded value, so merging a tall
  // histogram into a short one must extend the short one's array first and
  // leave every bucket count exact.
  Histogram small({.min_value = 1.0, .growth = 2.0, .max_buckets = 12});
  Histogram tall({.min_value = 1.0, .growth = 2.0, .max_buckets = 12});
  small.Add(1.5);  // bucket 1 only
  tall.Add(100.0); // bucket 7: [64, 128)
  ASSERT_LT(small.num_buckets(), tall.num_buckets());
  small.Merge(tall);
  EXPECT_EQ(small.num_buckets(), tall.num_buckets());
  EXPECT_EQ(small.count(), 2);
  EXPECT_EQ(small.bucket_count(1), 1);
  EXPECT_EQ(small.bucket_count(7), 1);
  EXPECT_DOUBLE_EQ(small.Max(), 100.0);
  // The reverse direction (short into tall) must agree.
  Histogram tall2({.min_value = 1.0, .growth = 2.0, .max_buckets = 12});
  Histogram small2({.min_value = 1.0, .growth = 2.0, .max_buckets = 12});
  tall2.Add(100.0);
  small2.Add(1.5);
  tall2.Merge(small2);
  EXPECT_EQ(tall2.count(), small.count());
  EXPECT_DOUBLE_EQ(tall2.Quantile(0.5), small.Quantile(0.5));
}

TEST(HistogramTest, UnderflowStaysBelowTheGeometricRange) {
  // Values below min_value — including denormals and exact zero — all land
  // in bucket 0 and never perturb the geometric buckets.
  Histogram histogram({.min_value = 1e-6});
  histogram.Add(0.0);
  histogram.Add(std::numeric_limits<double>::denorm_min());
  histogram.Add(1e-300);
  histogram.Add(-1e300);
  EXPECT_EQ(histogram.bucket_count(0), 4);
  EXPECT_EQ(histogram.overflow(), 0);
  EXPECT_EQ(histogram.count(), 4);
}

TEST(HistogramTest, QuantileRelativeErrorBoundedByBucketWidth) {
  // Uniform ramp 1..10000: every quantile of the histogram must sit within
  // one bucket's relative width (2^(1/16) with the defaults) of the truth.
  Histogram histogram({.min_value = 1e-3});
  for (int i = 1; i <= 10000; ++i) histogram.Add(static_cast<double>(i));
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double exact = q * 10000.0;
    const double approx = histogram.Quantile(q);
    EXPECT_NEAR(approx / exact, 1.0, 0.05) << "q=" << q;
  }
  // Extremes stay within one bucket of the observed min/max; the top
  // quantile clamps to the exact observed maximum.
  EXPECT_GE(histogram.Quantile(0.0), 1.0);
  EXPECT_LE(histogram.Quantile(0.0), 1.05);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 10000.0);
}

TEST(HistogramTest, QuantilesAreOrderIndependentAndDeterministic) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Exponential(0.01));

  Histogram forward;
  for (double v : values) forward.Add(v);
  std::reverse(values.begin(), values.end());
  Histogram backward;
  for (double v : values) backward.Add(v);

  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(forward.Quantile(q), backward.Quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(forward.Mean(), backward.Mean());
}

TEST(HistogramTest, MergeMatchesSingleHistogram) {
  Histogram a, b, whole;
  for (int i = 1; i <= 100; ++i) {
    const double v = 0.001 * i;
    (i % 2 == 0 ? a : b).Add(v);
    whole.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.Mean(), whole.Mean());
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), whole.Quantile(0.5));
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), whole.Quantile(0.99));
}

TEST(HistogramTest, SummarizeCarriesMoments) {
  Histogram histogram;
  histogram.Add(0.010);
  histogram.Add(0.030);
  const HistogramSummary summary = histogram.Summarize();
  EXPECT_EQ(summary.count, 2);
  EXPECT_DOUBLE_EQ(summary.mean, 0.020);
  EXPECT_DOUBLE_EQ(summary.min, 0.010);
  EXPECT_DOUBLE_EQ(summary.max, 0.030);
  EXPECT_LE(summary.p50, summary.p95);
  EXPECT_LE(summary.p95, summary.p99);
  EXPECT_LE(summary.p99, summary.p999);
}

TEST(HistogramTest, ToStringListsNonEmptyBuckets) {
  Histogram histogram({.min_value = 1.0, .growth = 2.0});
  histogram.Add(3.0);
  const std::string text = histogram.ToString();
  EXPECT_NE(text.find("[2, 4)"), std::string::npos) << text;
}

/// Checks the table lookup against the reference index on every edge, the
/// double just below it, and the special values; returns the mismatches.
int64_t EdgeMismatches(const HistogramOptions& options) {
  const Histogram histogram(options);
  const testing::ReferenceBucketIndex oracle(options);
  int64_t mismatches = 0;
  const auto check = [&](double v) {
    if (histogram.BucketIndex(v) != oracle(v)) {
      ADD_FAILURE() << "value " << v << ": table " << histogram.BucketIndex(v)
                    << ", oracle " << oracle(v);
      ++mismatches;
    }
  };
  for (const double edge : oracle.edges()) {
    check(edge);
    check(std::nextafter(edge, 0.0));
    check(std::nextafter(edge, std::numeric_limits<double>::infinity()));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v :
       {0.0, -0.0, -1.0, options.min_value,
        std::nextafter(options.min_value, 0.0),
        std::nextafter(options.min_value, inf), 1e300, inf, -inf,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min()}) {
    check(v);
  }
  return mismatches;
}

/// 10 M log-uniform values from min_value·2^-8 to min_value·2^50 through
/// both lookups; returns the mismatches.
int64_t SeededMismatches(const HistogramOptions& options, uint64_t seed) {
  const Histogram histogram(options);
  const testing::ReferenceBucketIndex oracle(options);
  Rng rng(seed);
  int64_t mismatches = 0;
  for (int64_t i = 0; i < 10'000'000; ++i) {
    const double v = options.min_value * std::exp2(rng.Uniform(-8.0, 50.0));
    if (histogram.BucketIndex(v) != oracle(v)) {
      if (mismatches == 0) {
        ADD_FAILURE() << "value " << v << ": table "
                      << histogram.BucketIndex(v) << ", oracle " << oracle(v);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

TEST(HistogramBucketIndexTest, TableMatchesOracleOnDefaultLayout) {
  EXPECT_EQ(EdgeMismatches({}), 0);
  EXPECT_EQ(SeededMismatches({}, 42), 0);
}

TEST(HistogramBucketIndexTest, TableMatchesOracleOnUnitMinimum) {
  EXPECT_EQ(EdgeMismatches({.min_value = 1.0}), 0);
  EXPECT_EQ(SeededMismatches({.min_value = 1.0}, 7), 0);
}

TEST(HistogramBucketIndexTest, TableMatchesOracleOnCoarseAndTightGrowth) {
  // Growth 2 keeps 64 sub-octaves per octave; the tight growth needs finer
  // ones to keep a single edge in each.
  EXPECT_EQ(EdgeMismatches({.min_value = 1.0, .growth = 2.0,
                            .max_buckets = 8}),
            0);
  EXPECT_EQ(EdgeMismatches({.min_value = 1.0, .growth = 1.0000001,
                            .max_buckets = 64}),
            0);
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.Counter("tuples") += 5;
  registry.Counter("tuples") += 2;
  registry.Gauge("load") = 0.8;
  registry.GetHistogram("latency").Add(0.25);
  EXPECT_EQ(registry.Counter("tuples"), 7);
  EXPECT_EQ(registry.num_counters(), 1u);
  EXPECT_EQ(registry.num_gauges(), 1u);
  EXPECT_TRUE(registry.HasHistogram("latency"));
  EXPECT_FALSE(registry.HasHistogram("missing"));

  JsonWriter json;
  registry.WriteJson(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"tuples\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("\"load\":0.8"), std::string::npos) << text;
  EXPECT_NE(text.find("\"latency\""), std::string::npos) << text;
}

}  // namespace
}  // namespace aqsios::obs
