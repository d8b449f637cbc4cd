#include "stream/arrival_process.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gtest_compat.h"

namespace aqsios::stream {
namespace {

/// The reference merge: concatenate the runs, stable-sort by time, number
/// the result. MergeArrivalTables must produce exactly this table.
ArrivalTable StableSortMergeOracle(
    const std::vector<std::vector<Arrival>>& per_stream) {
  ArrivalTable table;
  for (const auto& run : per_stream) {
    table.arrivals.insert(table.arrivals.end(), run.begin(), run.end());
  }
  std::stable_sort(table.arrivals.begin(), table.arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  for (size_t i = 0; i < table.arrivals.size(); ++i) {
    table.arrivals[i].id = static_cast<ArrivalId>(i);
  }
  return table;
}

void ExpectSameTable(const ArrivalTable& got, const ArrivalTable& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.arrivals.size(); ++i) {
    const Arrival& g = got.arrivals[i];
    const Arrival& w = want.arrivals[i];
    ASSERT_EQ(g.id, w.id) << "at " << i;
    ASSERT_EQ(g.time, w.time) << "at " << i;
    ASSERT_EQ(g.stream, w.stream) << "at " << i;
    ASSERT_EQ(g.attribute, w.attribute) << "at " << i;
    ASSERT_EQ(g.join_key, w.join_key) << "at " << i;
  }
}

/// One run per stream: every fifth run is empty, the others hold up to 60
/// arrivals on a coarse time grid (multiples of 0.25 below 8), so equal
/// timestamps recur within runs and across streams.
std::vector<std::vector<Arrival>> TiedRuns(int runs, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Arrival>> per_stream(static_cast<size_t>(runs));
  for (int s = 0; s < runs; ++s) {
    if (s % 5 == 4) continue;
    const int64_t count = rng.UniformInt(1, 60);
    std::vector<double> ticks;
    for (int64_t i = 0; i < count; ++i) {
      ticks.push_back(static_cast<double>(rng.UniformInt(0, 31)) * 0.25);
    }
    std::sort(ticks.begin(), ticks.end());
    for (const double t : ticks) {
      Arrival a;
      a.stream = s;
      a.time = t;
      a.attribute = rng.Uniform(0.0, 100.0);
      a.join_key = static_cast<int32_t>(rng.UniformInt(0, 99));
      per_stream[static_cast<size_t>(s)].push_back(a);
    }
  }
  return per_stream;
}

TEST(PoissonArrivalProcessTest, MonotoneAndMeanRate) {
  PoissonArrivalProcess process(100.0, /*seed=*/1);
  SimTime prev = 0.0;
  SimTime last = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const SimTime t = process.NextArrivalTime();
    EXPECT_GE(t, prev);
    prev = t;
    last = t;
  }
  // Mean inter-arrival should be close to 1/rate = 10 ms.
  EXPECT_NEAR(last / n, 0.01, 0.001);
}

TEST(PoissonArrivalProcessTest, DeterministicInSeed) {
  PoissonArrivalProcess a(50.0, 7);
  PoissonArrivalProcess b(50.0, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.NextArrivalTime(), b.NextArrivalTime());
  }
}

TEST(DeterministicArrivalProcessTest, FixedSpacing) {
  DeterministicArrivalProcess process(0.5, 1.0);
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 1.0);
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 1.5);
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 2.0);
}

TEST(OnOffArrivalProcessTest, MonotoneNonDecreasing) {
  OnOffConfig config;
  config.on_rate = 1000.0;
  config.mean_on_duration = 0.1;
  config.mean_off_duration = 0.3;
  OnOffArrivalProcess process(config, 11);
  SimTime prev = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const SimTime t = process.NextArrivalTime();
    ASSERT_GE(t, prev);
    prev = t;
  }
}

TEST(OnOffArrivalProcessTest, LongRunRateMatchesConfig) {
  OnOffConfig config;
  config.on_rate = 2000.0;
  config.mean_on_duration = 0.2;
  config.mean_off_duration = 0.6;
  OnOffArrivalProcess process(config, 5);
  const int n = 200000;
  SimTime last = 0.0;
  for (int i = 0; i < n; ++i) last = process.NextArrivalTime();
  const double measured_rate = n / last;
  EXPECT_NEAR(measured_rate / config.MeanRate(), 1.0, 0.1);
}

TEST(OnOffArrivalProcessTest, BurstierThanPoisson) {
  // The squared coefficient of variation of inter-arrivals must exceed 1
  // (the Poisson value) by a clear margin.
  OnOffConfig config;
  config.on_rate = 5000.0;
  config.mean_on_duration = 0.05;
  config.mean_off_duration = 0.2;
  OnOffArrivalProcess process(config, 13);
  const int n = 100000;
  double prev = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const SimTime t = process.NextArrivalTime();
    const double gap = t - prev;
    prev = t;
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const double cv2 = var / (mean * mean);
  EXPECT_GT(cv2, 2.0);
}

TEST(TraceArrivalProcessTest, ReplaysAndExhausts) {
  TraceArrivalProcess process({0.5, 1.0, 2.5});
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 0.5);
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 1.0);
  EXPECT_EQ(process.remaining(), 1);
  EXPECT_DOUBLE_EQ(process.NextArrivalTime(), 2.5);
  EXPECT_TRUE(std::isinf(process.NextArrivalTime()));
}

TEST(GenerateArrivalsTest, AttributesInRangeAndDeterministic) {
  PoissonArrivalProcess p1(100.0, 3);
  PoissonArrivalProcess p2(100.0, 3);
  const auto a = GenerateArrivals(p1, 0, 1000, /*seed=*/9, 50);
  const auto b = GenerateArrivals(p2, 0, 1000, /*seed=*/9, 50);
  ASSERT_EQ(a.size(), 1000u);
  ASSERT_EQ(b.size(), 1000u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].attribute, b[i].attribute);
    EXPECT_GT(a[i].attribute, 0.0);
    EXPECT_LE(a[i].attribute, 100.0);
    EXPECT_GE(a[i].join_key, 0);
    EXPECT_LT(a[i].join_key, 50);
    EXPECT_EQ(a[i].stream, 0);
  }
}

TEST(MergeArrivalTablesTest, MergesSortedWithDenseIds) {
  PoissonArrivalProcess p0(100.0, 1);
  PoissonArrivalProcess p1(100.0, 2);
  auto s0 = GenerateArrivals(p0, 0, 500, 10);
  auto s1 = GenerateArrivals(p1, 1, 500, 11);
  const ArrivalTable table = MergeArrivalTables({s0, s1});
  ASSERT_EQ(table.size(), 1000);
  for (int64_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.arrivals[static_cast<size_t>(i)].id, i);
    if (i > 0) {
      EXPECT_GE(table.arrivals[static_cast<size_t>(i)].time,
                table.arrivals[static_cast<size_t>(i - 1)].time);
    }
  }
}

TEST(MergeArrivalTablesTest, MatchesStableSortOracle) {
  for (const int runs : {0, 1, 2, 7, 200}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("runs=" + std::to_string(runs) +
                   " seed=" + std::to_string(seed));
      auto per_stream = TiedRuns(runs, seed * 1000 + runs);
      const ArrivalTable want = StableSortMergeOracle(per_stream);
      ExpectSameTable(MergeArrivalTables(std::move(per_stream)), want);
    }
  }
}

TEST(MergeArrivalTablesTest, CrossStreamTiesGoToTheLowerRun) {
  auto run = [](StreamId stream, std::vector<double> times) {
    std::vector<Arrival> arrivals;
    for (const double t : times) {
      Arrival a;
      a.stream = stream;
      a.time = t;
      a.attribute = static_cast<double>(arrivals.size());  // run position
      arrivals.push_back(a);
    }
    return arrivals;
  };
  // The runs' indices are not their stream ids: the tie rule follows the run
  // index, as a stable sort of the concatenation does.
  const ArrivalTable table = MergeArrivalTables(
      {run(9, {1.0, 2.0, 2.0}), run(3, {1.0}), run(5, {0.0, 1.0, 2.0})});
  // Each row: time, stream, position of the arrival within its run.
  struct Row {
    double time;
    StreamId stream;
    double position;
  };
  const std::vector<Row> want = {{0.0, 5, 0}, {1.0, 9, 0}, {1.0, 3, 0},
                                 {1.0, 5, 1}, {2.0, 9, 1}, {2.0, 9, 2},
                                 {2.0, 5, 2}};
  ASSERT_EQ(table.size(), static_cast<int64_t>(want.size()));
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(table.arrivals[i].id, static_cast<ArrivalId>(i));
    EXPECT_EQ(table.arrivals[i].time, want[i].time);
    EXPECT_EQ(table.arrivals[i].stream, want[i].stream);
    EXPECT_EQ(table.arrivals[i].attribute, want[i].position);
  }
}

TEST(MergeArrivalTablesDeathTest, RejectsUnsortedRun) {
  AQSIOS_GTEST_SET_FLAG(death_test_style, "threadsafe");
  std::vector<Arrival> sorted(2);
  sorted[0].time = 0.5;
  sorted[1].time = 1.5;
  std::vector<Arrival> unsorted(2);
  unsorted[0].time = 2.0;
  unsorted[1].time = 1.0;
  EXPECT_DEATH(MergeArrivalTables({sorted, unsorted}), "non-decreasing");
  EXPECT_DEATH(MergeArrivalTables({unsorted}), "non-decreasing");
}

TEST(MergeArrivalTablesDeathTest, RejectsNaNTime) {
  AQSIOS_GTEST_SET_FLAG(death_test_style, "threadsafe");
  std::vector<Arrival> sorted(2);
  sorted[0].time = 0.5;
  sorted[1].time = 1.5;
  std::vector<Arrival> with_nan(2);
  with_nan[0].time = 1.0;
  with_nan[1].time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(MergeArrivalTables({sorted, with_nan}), "finite");
  EXPECT_DEATH(MergeArrivalTables({with_nan}), "finite");
  std::vector<Arrival> nan_first(1);
  nan_first[0].time = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(MergeArrivalTables({sorted, nan_first}), "finite");
}

TEST(ArrivalTableTest, MeanInterArrivalPerStream) {
  ArrivalTable table;
  for (int i = 0; i < 10; ++i) {
    Arrival a;
    a.id = i;
    a.stream = i % 2;
    a.time = i * 0.5;
    table.arrivals.push_back(a);
  }
  // Whole table: gaps of 0.5.
  EXPECT_NEAR(table.MeanInterArrival(), 0.5, 1e-12);
  // Each stream: gaps of 1.0.
  EXPECT_NEAR(table.MeanInterArrival(0), 1.0, 1e-12);
  EXPECT_NEAR(table.MeanInterArrival(1), 1.0, 1e-12);
  EXPECT_NEAR(table.Horizon(), 4.5, 1e-12);
}

TEST(ArrivalTableTest, DegenerateCases) {
  ArrivalTable table;
  EXPECT_DOUBLE_EQ(table.MeanInterArrival(), 0.0);
  EXPECT_DOUBLE_EQ(table.Horizon(), 0.0);
  Arrival a;
  a.time = 3.0;
  table.arrivals.push_back(a);
  EXPECT_DOUBLE_EQ(table.MeanInterArrival(), 0.0);
  EXPECT_DOUBLE_EQ(table.Horizon(), 3.0);
  EXPECT_DOUBLE_EQ(table.MeanInterArrival(5), 0.0);
}

TEST(FrozenRandomnessTest, PureFunctionOfKey) {
  EXPECT_DOUBLE_EQ(FrozenUniform(42), FrozenUniform(42));
  EXPECT_NE(FrozenUniform(42), FrozenUniform(43));
  EXPECT_EQ(FrozenBernoulli(7, 0.5), FrozenBernoulli(7, 0.5));
}

TEST(FrozenRandomnessTest, ApproximatelyUniform) {
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (FrozenBernoulli(MixKeys(1, static_cast<uint64_t>(i)), 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace aqsios::stream
