// Tests for misestimated statistics and §10's run-time adaptation, which
// the online calibrator (sched/calibration.h) provides.

#include <cstdio>

#include <gtest/gtest.h>

#include "gtest_compat.h"

#include "core/dsms.h"
#include "query/workload.h"

namespace aqsios::exec {
namespace {

using core::RunResult;
using core::Simulate;
using core::SimulatePlan;
using core::SimulationOptions;

TEST(DriftModelTest, ActualSelectivityDefaultsToAssumed) {
  query::OperatorSpec op = query::MakeSelect(1.0, 0.4);
  EXPECT_DOUBLE_EQ(op.EffectiveActualSelectivity(), 0.4);
  op.actual_selectivity = 0.7;
  EXPECT_DOUBLE_EQ(op.EffectiveActualSelectivity(), 0.7);
}

TEST(DriftModelTest, ActualStatsDifferFromAssumed) {
  query::QuerySpec spec;
  spec.left_stream = 0;
  query::OperatorSpec select = query::MakeSelect(1.0, 0.2);
  select.actual_selectivity = 0.8;
  spec.left_ops = {select, query::MakeProject(2.0)};
  query::CompiledQuery q(spec, query::SelectivityMode::kIndependent);
  EXPECT_NEAR(q.ChainSegmentStats(0).selectivity, 0.2, 1e-12);
  EXPECT_NEAR(q.ActualChainSegmentStats(0).selectivity, 0.8, 1e-12);
  // C̄: assumed 1 + 0.2·2 vs actual 1 + 0.8·2.
  EXPECT_NEAR(SimTimeToMillis(q.ChainSegmentStats(0).expected_cost), 1.4,
              1e-9);
  EXPECT_NEAR(SimTimeToMillis(q.ActualChainSegmentStats(0).expected_cost),
              2.6, 1e-9);
  EXPECT_NEAR(SimTimeToMillis(q.ActualExpectedWorkPerArrival(0)), 2.6, 1e-9);
}

TEST(DriftModelTest, WorkloadCalibratesAgainstActualLoad) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 2000;
  config.utilization = 0.8;
  config.seed = 5;
  config.selectivity_misestimation = 0.5;
  const query::Workload w = query::GenerateWorkload(config);
  const double tau = w.arrivals.MeanInterArrival();
  // Actual work hits the target; assumed work generally does not.
  EXPECT_NEAR(w.plan.ActualExpectedWorkPerArrival(0) / tau, 0.8, 1e-9);
  EXPECT_GT(std::abs(w.plan.ExpectedWorkPerArrival(0) / tau - 0.8), 1e-3);
  // Some operator really drifted.
  bool any_drift = false;
  for (const auto& q : w.plan.queries()) {
    for (const auto& op : q.spec().left_ops) {
      if (op.actual_selectivity >= 0.0 &&
          op.actual_selectivity != op.selectivity) {
        any_drift = true;
      }
    }
  }
  EXPECT_TRUE(any_drift);
}

// --- End-to-end adaptation -------------------------------------------------------

query::Workload DriftedWorkload(uint64_t seed) {
  query::WorkloadConfig config;
  config.num_queries = 25;
  config.num_arrivals = 6000;
  config.utilization = 0.92;
  config.seed = seed;
  config.selectivity_misestimation = 0.8;
  return query::GenerateWorkload(config);
}

/// Builds the oracle twin: assumed statistics replaced by the actual ones.
query::GlobalPlan OraclePlan(const query::Workload& workload) {
  std::vector<query::CompiledQuery> queries;
  for (const query::CompiledQuery& q : workload.plan.queries()) {
    query::QuerySpec spec = q.spec();
    for (query::OperatorSpec& op : spec.left_ops) {
      op.selectivity = op.EffectiveActualSelectivity();
      op.actual_selectivity = -1.0;
    }
    queries.emplace_back(std::move(spec), q.selectivity_mode());
  }
  return query::GlobalPlan(std::move(queries), {}, 1);
}

class AdaptiveEndToEndTest : public testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveEndToEndTest, AdaptiveHnrApproachesOracle) {
  const query::Workload workload = DriftedWorkload(GetParam());

  const RunResult stale = Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr));

  SimulationOptions adaptive_options;
  adaptive_options.calibration.enabled = true;
  adaptive_options.calibration.period = 0.25;
  const RunResult adaptive =
      Simulate(workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr),
               adaptive_options);
  EXPECT_GT(adaptive.counters.adaptation_ticks, 0);

  const query::GlobalPlan oracle_plan = OraclePlan(workload);
  const RunResult oracle =
      SimulatePlan(oracle_plan, workload.arrivals,
                   sched::PolicyConfig::Of(sched::PolicyKind::kHnr));

  // Identical tuple flow in all three runs (filtering is execution-side).
  EXPECT_EQ(stale.qos.tuples_emitted, adaptive.qos.tuples_emitted);
  EXPECT_EQ(stale.qos.tuples_emitted, oracle.qos.tuples_emitted);

  // Oracle <= adaptive < stale: the estimator recovers nearly all of what
  // stale statistics lose. A selectivity-only misestimation leaves T
  // untouched, so only S and C̄ move.
  EXPECT_LT(oracle.qos.avg_slowdown, stale.qos.avg_slowdown);
  const double stale_gap = stale.qos.avg_slowdown - oracle.qos.avg_slowdown;
  const double recovered =
      (stale.qos.avg_slowdown - adaptive.qos.avg_slowdown) / stale_gap;
  std::printf("seed %llu: calibration recovers %.2f%% of the gap\n",
              static_cast<unsigned long long>(GetParam()), 100.0 * recovered);
  EXPECT_GE(recovered, 0.95)
      << "calibration should close at least 95% of the stale-statistics gap";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveEndToEndTest,
                         testing::Values(42u, 7u, 2024u));

TEST(AdaptiveEngineDeathTest, RequiresQueryLevel) {
  AQSIOS_GTEST_SET_FLAG(death_test_style, "threadsafe");
  query::WorkloadConfig config;
  config.num_queries = 4;
  config.num_arrivals = 100;
  config.seed = 1;
  const query::Workload workload = query::GenerateWorkload(config);
  SimulationOptions options;
  options.calibration.enabled = true;
  options.level = SchedulingLevel::kOperatorLevel;
  EXPECT_DEATH(Simulate(workload,
                        sched::PolicyConfig::Of(sched::PolicyKind::kHnr),
                        options),
               "query-level");
}

}  // namespace
}  // namespace aqsios::exec
