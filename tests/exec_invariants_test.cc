// Engine invariants that every policy must preserve.

#include <map>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "query/workload.h"

namespace aqsios::exec {
namespace {

using core::RunResult;
using core::Simulate;
using core::SimulationOptions;

const sched::PolicyKind kAllPolicies[] = {
    sched::PolicyKind::kFcfs,   sched::PolicyKind::kRoundRobin,
    sched::PolicyKind::kSrpt,   sched::PolicyKind::kHr,
    sched::PolicyKind::kHnr,    sched::PolicyKind::kLsf,
    sched::PolicyKind::kBsd,    sched::PolicyKind::kBsdClustered,
    sched::PolicyKind::kChain,  sched::PolicyKind::kTwoLevelRr,
    sched::PolicyKind::kLpNorm, sched::PolicyKind::kQosGraph,
};

query::Workload SmallWorkload(uint64_t seed) {
  query::WorkloadConfig config;
  config.num_queries = 12;
  config.num_arrivals = 1500;
  config.utilization = 0.9;
  config.seed = seed;
  return query::GenerateWorkload(config);
}

TEST(EngineInvariantsTest, EveryPolicyProcessesEverything) {
  const query::Workload workload = SmallWorkload(21);
  for (sched::PolicyKind kind : kAllPolicies) {
    const RunResult r = Simulate(workload, sched::PolicyConfig::Of(kind));
    // Work conservation: every (arrival × query) item executes exactly once
    // at query level.
    EXPECT_EQ(r.counters.unit_executions, 1500 * 12)
        << sched::PolicyKindName(kind);
    // For single-stream chains at query level every execution either emits
    // its tuple or filters it: emitted + filtered == executions.
    EXPECT_EQ(r.counters.tuples_emitted + r.counters.tuples_filtered,
              r.counters.unit_executions)
        << sched::PolicyKindName(kind);
    EXPECT_GE(r.qos.avg_slowdown, 1.0) << sched::PolicyKindName(kind);
    EXPECT_GE(r.counters.end_time, r.counters.busy_time)
        << sched::PolicyKindName(kind);
    // All queues drained: average queue occupancy is finite and bounded by
    // the peak.
    EXPECT_LE(r.counters.avg_queued_tuples,
              static_cast<double>(r.counters.peak_queued_tuples))
        << sched::PolicyKindName(kind);
  }
}

TEST(EngineInvariantsTest, BusyTimeIdenticalAcrossPolicies) {
  const query::Workload workload = SmallWorkload(22);
  double reference = -1.0;
  for (sched::PolicyKind kind : kAllPolicies) {
    const RunResult r = Simulate(workload, sched::PolicyConfig::Of(kind));
    if (reference < 0.0) {
      reference = r.counters.busy_time;
    } else {
      EXPECT_NEAR(r.counters.busy_time, reference, 1e-9)
          << sched::PolicyKindName(kind);
    }
  }
}

TEST(EngineInvariantsTest, PerQueryEmissionsPolicyInvariant) {
  const query::Workload workload = SmallWorkload(23);
  SimulationOptions options;
  options.qos.track_per_query = true;
  std::map<int32_t, int64_t> reference;
  for (sched::PolicyKind kind :
       {sched::PolicyKind::kFcfs, sched::PolicyKind::kHnr,
        sched::PolicyKind::kBsd, sched::PolicyKind::kChain}) {
    const RunResult r =
        Simulate(workload, sched::PolicyConfig::Of(kind), options);
    std::map<int32_t, int64_t> counts;
    for (const auto& [query, stats] : r.qos.per_query_slowdown) {
      counts[query] = stats.count();
    }
    if (reference.empty()) {
      reference = counts;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(counts, reference) << sched::PolicyKindName(kind);
    }
  }
}

TEST(EngineInvariantsTest, OverheadTimeAccountingIdentity) {
  const query::Workload workload = SmallWorkload(24);
  SimulationOptions charged;
  charged.charge_scheduling_overhead = true;
  const RunResult r = Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kBsd), charged);
  // overhead_time == overhead_operations × cheapest operator cost.
  EXPECT_NEAR(r.counters.overhead_time,
              static_cast<double>(r.counters.overhead_operations) *
                  workload.plan.MinOperatorCost(),
              1e-6);
  EXPECT_GT(r.counters.overhead_time, 0.0);
  // End time covers busy + overhead (idle gaps make it >=).
  EXPECT_GE(r.counters.end_time,
            r.counters.busy_time + r.counters.overhead_time - 1e-9);
}

TEST(EngineInvariantsTest, FifoWithinQueryUnderEveryPolicy) {
  // With selectivity-1 single-operator queries, each query's emissions must
  // be in arrival order (unit queues are FIFO) whatever the policy.
  for (sched::PolicyKind kind : kAllPolicies) {
    core::Dsms dsms(query::SelectivityMode::kCorrelatedAttribute);
    query::QuerySpec fast;
    fast.left_stream = 0;
    fast.left_ops = {query::MakeSelect(1.0, 1.0)};
    dsms.AddQuery(fast);
    query::QuerySpec slow;
    slow.left_stream = 0;
    slow.left_ops = {query::MakeSelect(7.0, 1.0)};
    dsms.AddQuery(slow);
    stream::ArrivalTable arrivals;
    for (int i = 0; i < 40; ++i) {
      stream::Arrival a;
      a.id = i;
      a.stream = 0;
      a.time = 0.0005 * i;  // overload: both queries backlog
      a.attribute = 1.0;
      arrivals.arrivals.push_back(a);
    }
    dsms.SetArrivals(arrivals);
    SimulationOptions options;
    options.qos.track_per_query = true;
    const RunResult r =
        dsms.Run(sched::PolicyConfig::Of(kind), options);
    EXPECT_EQ(r.qos.tuples_emitted, 80) << sched::PolicyKindName(kind);
    // FIFO within a query implies each query's max response >= its mean and
    // its emitted count equals the arrivals.
    for (const auto& [query, stats] : r.qos.per_query_slowdown) {
      EXPECT_EQ(stats.count(), 40) << sched::PolicyKindName(kind);
    }
  }
}

TEST(EngineInvariantsTest, AdaptiveBsdReadsRefreshedStatsLive) {
  // BSD re-keys the units the calibrator rewrites; the run must stay
  // self-consistent.
  query::WorkloadConfig config;
  config.num_queries = 10;
  config.num_arrivals = 2000;
  config.utilization = 0.9;
  config.seed = 25;
  config.selectivity_misestimation = 0.7;
  const query::Workload workload = query::GenerateWorkload(config);
  SimulationOptions adaptive;
  adaptive.calibration.enabled = true;
  adaptive.calibration.period = 0.2;
  const RunResult with = Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kBsd), adaptive);
  const RunResult without =
      Simulate(workload, sched::PolicyConfig::Of(sched::PolicyKind::kBsd));
  EXPECT_GT(with.counters.adaptation_ticks, 0);
  EXPECT_GT(with.counters.calibration_updates, 0);
  EXPECT_EQ(with.qos.tuples_emitted, without.qos.tuples_emitted);
  EXPECT_GE(with.qos.avg_slowdown, 1.0);
}

TEST(EngineInvariantsTest, SharingWorkloadAcrossStrategiesConserved) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 1500;
  config.utilization = 0.85;
  config.sharing_group_size = 5;
  config.seed = 26;
  const query::Workload workload = query::GenerateWorkload(config);
  int64_t reference = -1;
  for (sched::SharingStrategy strategy :
       {sched::SharingStrategy::kMax, sched::SharingStrategy::kSum,
        sched::SharingStrategy::kPdt}) {
    SimulationOptions options;
    options.sharing_strategy = strategy;
    const RunResult r = Simulate(
        workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);
    if (reference < 0) {
      reference = r.qos.tuples_emitted;
      EXPECT_GT(reference, 0);
    } else {
      // Strategy changes the order (and with PDT, the bundling), never the
      // tuple flow.
      EXPECT_EQ(r.qos.tuples_emitted, reference)
          << sched::SharingStrategyName(strategy);
    }
  }
}

}  // namespace
}  // namespace aqsios::exec
