#include "metrics/qos.h"

#include <cmath>

#include <gtest/gtest.h>

namespace aqsios::metrics {
namespace {

TEST(ClassKeyTest, DecileRounding) {
  EXPECT_EQ(MakeClassKey(2, 0.5).selectivity_decile, 5);
  EXPECT_EQ(MakeClassKey(2, 1.0).selectivity_decile, 10);
  EXPECT_EQ(MakeClassKey(2, 0.14).selectivity_decile, 1);
  EXPECT_EQ(MakeClassKey(0, 0.16).selectivity_decile, 2);
}

TEST(MinSlowdownTest, AdmitsOneUlpOfCancellationAtSixteenSeconds) {
  // A composite of ideal time 9.6e-7 s whose trigger arrives at t = 16.0014 s
  // and runs its three path operators at once. Its response is a difference
  // of absolute clock values, and one ulp of the clock at 16 s (3.6e-15 s)
  // is 3.7e-9 of slowdown: the emission computes 1 - 3.7e-9, below the old
  // fixed 1 - 1e-9 floor.
  const SimTime ideal_time = 9.6e-7;
  const SimTime charges[] = {1.2e-7, 2.4e-7, 1.2e-7};
  const SimTime arrival = 16.0014;
  SimTime path_cost = 0.0;
  SimTime now = arrival;
  for (const SimTime cost : charges) {
    path_cost += cost;
    now += cost;
  }
  const SimTime ideal_departure = arrival + path_cost;
  const double slowdown = 1.0 + (now - ideal_departure) / ideal_time;
  EXPECT_LT(slowdown, 1.0 - 1e-9);
  EXPECT_GE(slowdown, MinSlowdown(now, ideal_time, /*path_charges=*/3));
  // The bound is tight to the clock: a deficit of a few ulps more fails.
  EXPECT_LT(1.0 - 4.0 * (1.0 - slowdown),
            MinSlowdown(now, ideal_time, /*path_charges=*/3));
}

TEST(MinSlowdownTest, StaysAtOneMinusOneBillionthWhereTheClockResolves) {
  // Early in a run, or for slow queries, the clock resolves far finer than
  // 1e-9 of the ideal time: the fixed floor is the bound.
  EXPECT_EQ(MinSlowdown(0.0, 1e-3, 5), 1.0 - 1e-9);
  EXPECT_EQ(MinSlowdown(1.0, 1e-3, 5), 1.0 - 1e-9);
  EXPECT_EQ(MinSlowdown(100.0, 0.1, 3), 1.0 - 1e-9);
  // It loosens only in proportion to ulp(now) / ideal_time.
  EXPECT_LT(MinSlowdown(16.0, 9.6e-7, 3), 1.0 - 1e-9);
  EXPECT_LT(MinSlowdown(32.0, 9.6e-7, 3), MinSlowdown(16.0, 9.6e-7, 3));
  EXPECT_LT(MinSlowdown(16.0, 9.6e-7, 7), MinSlowdown(16.0, 9.6e-7, 3));
}

TEST(ClassKeyTest, Ordering) {
  const ClassKey a = MakeClassKey(0, 0.5);
  const ClassKey b = MakeClassKey(0, 0.6);
  const ClassKey c = MakeClassKey(1, 0.1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, MakeClassKey(0, 0.5));
}

TEST(QosCollectorTest, AggregatesBasics) {
  QosCollector collector;
  collector.RecordOutput(0, 0, 0.5, /*arrival=*/0.0, /*response=*/0.010,
                         /*slowdown=*/2.0);
  collector.RecordOutput(1, 1, 0.8, 0.1, 0.020, 4.0);
  const QosSnapshot snap = collector.Snapshot();
  EXPECT_EQ(snap.tuples_emitted, 2);
  EXPECT_NEAR(snap.avg_response, 0.015, 1e-12);
  EXPECT_NEAR(snap.max_response, 0.020, 1e-12);
  EXPECT_NEAR(snap.avg_slowdown, 3.0, 1e-12);
  EXPECT_NEAR(snap.max_slowdown, 4.0, 1e-12);
  EXPECT_NEAR(snap.l2_slowdown, std::sqrt(4.0 + 16.0), 1e-12);
  EXPECT_NEAR(snap.rms_slowdown, std::sqrt(10.0), 1e-12);
}

TEST(QosCollectorTest, PerClassBreakdown) {
  QosCollector collector;
  collector.RecordOutput(0, 0, 0.5, 0.0, 0.010, 2.0);
  collector.RecordOutput(1, 0, 0.5, 0.0, 0.010, 4.0);
  collector.RecordOutput(2, 3, 1.0, 0.0, 0.010, 10.0);
  const QosSnapshot snap = collector.Snapshot();
  ASSERT_EQ(snap.per_class_slowdown.size(), 2u);
  const auto& low = snap.per_class_slowdown.at(MakeClassKey(0, 0.5));
  EXPECT_EQ(low.count(), 2);
  EXPECT_NEAR(low.Mean(), 3.0, 1e-12);
  const auto& high = snap.per_class_slowdown.at(MakeClassKey(3, 1.0));
  EXPECT_EQ(high.count(), 1);
  EXPECT_NEAR(high.Mean(), 10.0, 1e-12);
}

TEST(QosCollectorTest, PerClassDisabled) {
  QosCollector::Options options;
  options.track_per_class = false;
  QosCollector collector(options);
  collector.RecordOutput(0, 0, 0.5, 0.0, 0.010, 2.0);
  EXPECT_TRUE(collector.Snapshot().per_class_slowdown.empty());
}

TEST(QosCollectorTest, WarmupCutDropsEarlyArrivals) {
  QosCollector::Options options;
  options.warmup_until = 1.0;
  QosCollector collector(options);
  collector.RecordOutput(0, 0, 0.5, /*arrival=*/0.5, 0.010, 2.0);
  collector.RecordOutput(0, 0, 0.5, /*arrival=*/1.5, 0.010, 6.0);
  const QosSnapshot snap = collector.Snapshot();
  EXPECT_EQ(snap.tuples_emitted, 1);
  EXPECT_NEAR(snap.avg_slowdown, 6.0, 1e-12);
}

TEST(QosCollectorTest, QuantilesFromHistogram) {
  QosCollector collector;
  for (int i = 1; i <= 1000; ++i) {
    collector.RecordOutput(0, 0, 0.5, 0.0, 0.001 * i, 1.0 + i * 0.01);
  }
  const QosSnapshot snap = collector.Snapshot();
  EXPECT_NEAR(snap.p50_slowdown, 1.0 + 500 * 0.01, 0.5);
  EXPECT_NEAR(snap.p95_slowdown, 1.0 + 950 * 0.01, 0.6);
  EXPECT_NEAR(snap.p99_slowdown, 1.0 + 990 * 0.01, 0.6);
  EXPECT_NEAR(snap.p999_slowdown, 1.0 + 999 * 0.01, 0.6);
  EXPECT_LE(snap.p50_slowdown, snap.p95_slowdown);
  EXPECT_LE(snap.p95_slowdown, snap.p99_slowdown);
  EXPECT_LE(snap.p99_slowdown, snap.p999_slowdown);
  EXPECT_LE(snap.p999_slowdown, snap.max_slowdown);
}

TEST(QosCollectorTest, QuantilesAreDeterministic) {
  // The histogram has no reservoir and no seed: two collectors fed the same
  // observations in different orders agree bit-for-bit on every quantile.
  QosCollector forward;
  QosCollector backward;
  for (int i = 1; i <= 500; ++i) {
    forward.RecordOutput(0, 0, 0.5, 0.0, 0.001, 1.0 + (i % 37) * 0.4);
  }
  for (int i = 500; i >= 1; --i) {
    backward.RecordOutput(0, 0, 0.5, 0.0, 0.001, 1.0 + (i % 37) * 0.4);
  }
  const QosSnapshot a = forward.Snapshot();
  const QosSnapshot b = backward.Snapshot();
  EXPECT_DOUBLE_EQ(a.p50_slowdown, b.p50_slowdown);
  EXPECT_DOUBLE_EQ(a.p95_slowdown, b.p95_slowdown);
  EXPECT_DOUBLE_EQ(a.p99_slowdown, b.p99_slowdown);
  EXPECT_DOUBLE_EQ(a.p999_slowdown, b.p999_slowdown);
}

TEST(QosCollectorTest, SnapshotToStringMentionsKeyMetrics) {
  QosCollector collector;
  collector.RecordOutput(0, 0, 0.5, 0.0, 0.010, 2.0);
  const std::string text = collector.Snapshot().ToString();
  EXPECT_NE(text.find("avg_slowdown"), std::string::npos);
  EXPECT_NE(text.find("l2_slowdown"), std::string::npos);
}

TEST(QosCollectorTest, PerQueryTrackingAndJainIndex) {
  QosCollector::Options options;
  options.track_per_query = true;
  QosCollector collector(options);
  // Two queries with equal mean slowdowns: perfectly fair.
  collector.RecordOutput(0, 0, 0.5, 0.0, 0.010, 4.0);
  collector.RecordOutput(1, 0, 0.5, 0.0, 0.010, 4.0);
  QosSnapshot snap = collector.Snapshot();
  ASSERT_EQ(snap.per_query_slowdown.size(), 2u);
  EXPECT_NEAR(snap.JainFairnessIndex(), 1.0, 1e-12);

  // Add a badly starved third query: fairness drops.
  collector.RecordOutput(2, 0, 0.5, 0.0, 0.010, 400.0);
  snap = collector.Snapshot();
  // Jain = (4+4+400)^2 / (3*(16+16+160000)).
  EXPECT_NEAR(snap.JainFairnessIndex(),
              408.0 * 408.0 / (3.0 * 160032.0), 1e-9);
  EXPECT_LT(snap.JainFairnessIndex(), 0.5);
}

TEST(QosCollectorTest, JainIndexZeroWithoutPerQueryTracking) {
  QosCollector collector;  // default: per-query off
  collector.RecordOutput(0, 0, 0.5, 0.0, 0.010, 2.0);
  EXPECT_DOUBLE_EQ(collector.Snapshot().JainFairnessIndex(), 0.0);
}

TEST(QosCollectorTest, EmptySnapshot) {
  QosCollector collector;
  const QosSnapshot snap = collector.Snapshot();
  EXPECT_EQ(snap.tuples_emitted, 0);
  EXPECT_DOUBLE_EQ(snap.avg_slowdown, 0.0);
  EXPECT_DOUBLE_EQ(snap.l2_slowdown, 0.0);
}

}  // namespace
}  // namespace aqsios::metrics
