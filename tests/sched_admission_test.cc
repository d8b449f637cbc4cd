// Per-class admission control while routing to shards (docs/overload.md):
// lane construction from the plan's dominant cost classes, budget caps
// under adversarial bursts, DRS-style reallocation, and determinism of the
// end-to-end capped sharded run.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.h"
#include "core/sharded_dsms.h"
#include "query/workload.h"
#include "sched/admission.h"
#include "sched/shard_router.h"

namespace aqsios::sched {
namespace {

query::Workload MakeWorkload(int queries, int64_t arrivals,
                             double utilization = 2.0, uint64_t seed = 42) {
  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.utilization = utilization;
  config.seed = seed;
  return query::GenerateWorkload(config);
}

TEST(AdmissionControllerTest, LanesCoverEverySubscribedShard) {
  const query::Workload workload = MakeWorkload(64, 500);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 4, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 100;
  const AdmissionController admission(workload.plan, assignment, config);

  ASSERT_GT(admission.num_lanes(), 0);
  // Single-stream workload: every non-empty shard subscribes to stream 0
  // and must own a lane metering a real cost class.
  for (int s = 0; s < 4; ++s) {
    if (assignment.queries_of_shard[static_cast<size_t>(s)].empty()) {
      EXPECT_EQ(admission.LaneOf(s, 0), -1);
      continue;
    }
    const int lane = admission.LaneOf(s, 0);
    ASSERT_GE(lane, 0);
    EXPECT_EQ(admission.LaneShard(lane), s);
    EXPECT_GE(admission.LaneClass(lane), 0);
  }
  // Unsubscribed streams have no lane and are never metered.
  EXPECT_EQ(admission.LaneOf(0, 999), -1);
}

TEST(AdmissionControllerTest, CapsAreRespectedUnderAnAdversarialBurst) {
  // All arrivals land inside one window. Each lane may admit at most its
  // budget; everything else must be rejected and accounted.
  const query::Workload workload = MakeWorkload(48, 500);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 2, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 40;
  config.window_seconds = 1e9;  // the whole run is one window
  AdmissionController admission(workload.plan, assignment, config);

  std::vector<int64_t> admitted(2, 0);
  for (int64_t i = 0; i < 1000; ++i) {
    for (int s = 0; s < 2; ++s) {
      if (admission.Admit(s, 0, 0.001 * static_cast<double>(i))) {
        ++admitted[static_cast<size_t>(s)];
      }
    }
  }
  int64_t total_budget = 0;
  for (int64_t b : admission.budgets()) total_budget += b;
  for (int s = 0; s < 2; ++s) {
    const int lane = admission.LaneOf(s, 0);
    ASSERT_GE(lane, 0);
    EXPECT_EQ(admitted[static_cast<size_t>(s)],
              admission.budgets()[static_cast<size_t>(lane)])
        << "shard " << s;
  }
  EXPECT_EQ(admission.offered(), 2000);
  EXPECT_EQ(admission.dropped(), 2000 - admitted[0] - admitted[1]);
  EXPECT_LE(admitted[0] + admitted[1], total_budget);
  // Per-shard drop accounting adds up to the total.
  int64_t per_shard_total = 0;
  for (int64_t d : admission.dropped_per_shard()) per_shard_total += d;
  EXPECT_EQ(per_shard_total, admission.dropped());
}

TEST(AdmissionControllerTest, WindowRollRefillsBudgets) {
  const query::Workload workload = MakeWorkload(16, 100);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 1, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 5;
  config.window_seconds = 1.0;
  AdmissionController admission(workload.plan, assignment, config);

  int admitted_first = 0;
  for (int i = 0; i < 20; ++i) {
    if (admission.Admit(0, 0, 0.1)) ++admitted_first;
  }
  EXPECT_EQ(admitted_first, 5) << "first window capped at the budget";
  int admitted_second = 0;
  for (int i = 0; i < 20; ++i) {
    if (admission.Admit(0, 0, 1.5)) ++admitted_second;
  }
  EXPECT_EQ(admitted_second, 5) << "a fresh window refills the budget";
}

TEST(AdmissionControllerTest, ReallocationFollowsDemand) {
  // Two shards, one receiving 9x the traffic: after a few EWMA windows the
  // hot lane's budget must exceed the cold one's, and the cold lane must
  // keep at least the min-share floor.
  const query::Workload workload = MakeWorkload(64, 500);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 2, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 100;
  config.window_seconds = 1.0;
  config.min_share = 0.05;
  AdmissionController admission(workload.plan, assignment, config);
  const int hot = admission.LaneOf(0, 0);
  const int cold = admission.LaneOf(1, 0);
  ASSERT_GE(hot, 0);
  ASSERT_GE(cold, 0);

  for (int window = 0; window < 6; ++window) {
    const double base = static_cast<double>(window);
    for (int i = 0; i < 90; ++i) admission.Admit(0, 0, base + 0.5);
    for (int i = 0; i < 10; ++i) admission.Admit(1, 0, base + 0.6);
  }
  const std::vector<int64_t>& budgets = admission.budgets();
  EXPECT_GT(budgets[static_cast<size_t>(hot)],
            budgets[static_cast<size_t>(cold)]);
  EXPECT_GE(budgets[static_cast<size_t>(cold)],
            static_cast<int64_t>(0.05 * 100.0 / 2.0))
      << "the floor must keep the cold lane alive";
}

TEST(AdmissionControllerTest, DisabledBudgetAdmitsEverything) {
  const query::Workload workload = MakeWorkload(16, 100);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 2, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 0;  // track demand, never drop
  AdmissionController admission(workload.plan, assignment, config);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(admission.Admit(i % 2, 0, 0.01 * static_cast<double>(i)));
  }
  EXPECT_EQ(admission.dropped(), 0);
}

TEST(AdmissionControllerTest, DecisionsAreAPureFunctionOfTheCallSequence) {
  const query::Workload workload = MakeWorkload(48, 500);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 2, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 30;
  config.window_seconds = 0.5;
  AdmissionController a(workload.plan, assignment, config);
  AdmissionController b(workload.plan, assignment, config);
  for (const stream::Arrival& arrival : workload.arrivals.arrivals) {
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(a.Admit(s, arrival.stream, arrival.time),
                b.Admit(s, arrival.stream, arrival.time));
    }
  }
  EXPECT_EQ(a.dropped(), b.dropped());
  EXPECT_EQ(a.budgets(), b.budgets());
}

TEST(AdmissionEndToEndTest, CappedShardedRunIsDeterministicAndAccounted) {
  const query::Workload workload = MakeWorkload(64, 2000);
  core::SimulationOptions options;
  options.shards = 4;
  options.admission.enabled = true;
  options.admission.window_seconds = 1.0;
  options.admission.tuples_per_window = 200;

  const sched::PolicyConfig policy = PolicyConfig::Of(PolicyKind::kHnr);
  const core::ShardedRunResult a =
      core::SimulateSharded(workload, policy, options);
  const core::ShardedRunResult b =
      core::SimulateSharded(workload, policy, options);

  int64_t dropped = 0;
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    EXPECT_EQ(a.shard_stats[s].arrivals, b.shard_stats[s].arrivals);
    EXPECT_EQ(a.shard_stats[s].admission_dropped,
              b.shard_stats[s].admission_dropped);
    dropped += a.shard_stats[s].admission_dropped;
  }
  EXPECT_GT(dropped, 0) << "a tight budget under overload must drop";
  EXPECT_EQ(core::RunResultToJson(a.result), core::RunResultToJson(b.result));

  // Uncapped run for contrast: no drops, more tuples delivered.
  core::SimulationOptions uncapped = options;
  uncapped.admission.enabled = false;
  const core::ShardedRunResult full =
      core::SimulateSharded(workload, policy, uncapped);
  for (const core::ShardRunStats& stats : full.shard_stats) {
    EXPECT_EQ(stats.admission_dropped, 0);
  }
  EXPECT_GT(full.result.qos.tuples_emitted, a.result.qos.tuples_emitted);
}

}  // namespace
}  // namespace aqsios::sched
