#include "sched/shard_router.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "query/plan.h"
#include "query/workload.h"
#include "sched/admission.h"
#include "stream/tuple.h"

namespace aqsios::sched {
namespace {

query::Workload SingleStream(int queries, int sharing_group_size = 0) {
  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = 500;
  config.seed = 42;
  config.sharing_group_size = sharing_group_size;
  return query::GenerateWorkload(config);
}

TEST(AssignShardsTest, DeterministicAndComplete) {
  const query::Workload workload = SingleStream(64);
  const ShardAssignment a = AssignShards(workload.plan, 4, 0x5eedc0de);
  const ShardAssignment b = AssignShards(workload.plan, 4, 0x5eedc0de);
  EXPECT_EQ(a.num_shards, 4);
  ASSERT_EQ(a.shard_of_query.size(), 64u);
  EXPECT_EQ(a.shard_of_query, b.shard_of_query);

  // Every query lands on exactly one shard, and the two views agree.
  int total = 0;
  for (int s = 0; s < 4; ++s) {
    for (const query::QueryId q : a.queries_of_shard[static_cast<size_t>(s)]) {
      EXPECT_EQ(a.shard_of_query[static_cast<size_t>(q)], s);
      ++total;
    }
    // Ascending within a shard (sub-plan order).
    EXPECT_TRUE(std::is_sorted(
        a.queries_of_shard[static_cast<size_t>(s)].begin(),
        a.queries_of_shard[static_cast<size_t>(s)].end()));
  }
  EXPECT_EQ(total, 64);
}

TEST(AssignShardsTest, SeedChangesPlacement) {
  const query::Workload workload = SingleStream(64);
  const ShardAssignment a = AssignShards(workload.plan, 4, 1);
  const ShardAssignment b = AssignShards(workload.plan, 4, 2);
  EXPECT_NE(a.shard_of_query, b.shard_of_query);
}

TEST(AssignShardsTest, SingleShardTakesEverything) {
  const query::Workload workload = SingleStream(10);
  const ShardAssignment a = AssignShards(workload.plan, 1, 7);
  EXPECT_EQ(a.queries_of_shard.size(), 1u);
  EXPECT_EQ(a.queries_of_shard[0].size(), 10u);
}

TEST(AssignShardsTest, SharingGroupsColocate) {
  // §9.3-style workload: groups of 10 queries share a select operator. A
  // group's shared leaf must execute once per tuple, so the whole group
  // anchors on its smallest member id and lands on one shard.
  const query::Workload workload = SingleStream(60, /*sharing_group_size=*/10);
  ASSERT_FALSE(workload.plan.sharing_groups().empty());
  const ShardAssignment a = AssignShards(workload.plan, 4, 0x5eedc0de);
  for (const query::SharingGroup& group : workload.plan.sharing_groups()) {
    ASSERT_FALSE(group.members.empty());
    const int shard =
        a.shard_of_query[static_cast<size_t>(group.members.front())];
    for (const query::QueryId member : group.members) {
      EXPECT_EQ(a.shard_of_query[static_cast<size_t>(member)], shard)
          << "sharing group split across shards";
    }
  }
}

// Streams read by the queries of shard `s`.
std::set<stream::StreamId> SubscribedStreams(const query::GlobalPlan& plan,
                                             const ShardAssignment& assignment,
                                             int s) {
  std::set<stream::StreamId> subscribed;
  for (const query::QueryId q :
       assignment.queries_of_shard[static_cast<size_t>(s)]) {
    const query::QuerySpec& spec = plan.query(q).spec();
    subscribed.insert(spec.left_stream);
    if (spec.right_stream >= 0) subscribed.insert(spec.right_stream);
    for (const query::JoinStage& stage : spec.extra_stages) {
      subscribed.insert(stage.stream);
    }
  }
  return subscribed;
}

query::Workload MultiStream(double utilization = 0.9) {
  query::WorkloadConfig config;
  config.num_queries = 16;
  config.num_arrivals = 600;
  config.seed = 7;
  config.multi_stream = true;
  config.utilization = utilization;
  return query::GenerateWorkload(config);
}

TEST(RouteArrivalsTest, SingleStreamFanOutIsExactCopy) {
  const query::Workload workload = SingleStream(24);
  const ShardAssignment assignment =
      AssignShards(workload.plan, 3, 0x5eedc0de);
  const std::vector<stream::ArrivalTable> shards =
      RouteArrivals(workload.plan, assignment, workload.arrivals);
  ASSERT_EQ(shards.size(), 3u);
  // Single-stream workload: every (non-empty) shard subscribes to stream 0
  // and receives the whole table — same global ids, same order.
  for (int s = 0; s < 3; ++s) {
    const stream::ArrivalTable& sub = shards[static_cast<size_t>(s)];
    if (assignment.queries_of_shard[static_cast<size_t>(s)].empty()) {
      EXPECT_TRUE(sub.empty()) << "shard " << s;
      continue;
    }
    ASSERT_EQ(sub.size(), workload.arrivals.size()) << "shard " << s;
    for (int64_t i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(sub.arrivals[static_cast<size_t>(i)].id,
                workload.arrivals.arrivals[static_cast<size_t>(i)].id);
      EXPECT_EQ(sub.arrivals[static_cast<size_t>(i)].time,
                workload.arrivals.arrivals[static_cast<size_t>(i)].time);
    }
  }
}

TEST(RouteArrivalsTest, MultiStreamRoutesBySubscription) {
  const query::Workload workload = MultiStream();
  const ShardAssignment assignment =
      AssignShards(workload.plan, 3, 0x5eedc0de);
  const std::vector<stream::ArrivalTable> shards =
      RouteArrivals(workload.plan, assignment, workload.arrivals);
  for (int s = 0; s < 3; ++s) {
    const std::set<stream::StreamId> subscribed =
        SubscribedStreams(workload.plan, assignment, s);
    // The shard's sub-table must be exactly the global table filtered to its
    // subscribed streams (order and ids preserved).
    std::vector<stream::Arrival> want;
    for (const stream::Arrival& arrival : workload.arrivals.arrivals) {
      if (subscribed.count(arrival.stream)) want.push_back(arrival);
    }
    const stream::ArrivalTable& sub = shards[static_cast<size_t>(s)];
    ASSERT_EQ(sub.size(), static_cast<int64_t>(want.size())) << "shard " << s;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(sub.arrivals[i].id, want[i].id);
      EXPECT_EQ(sub.arrivals[i].stream, want[i].stream);
    }
  }
}

TEST(RouteArrivalsTest, AdmissionSkipsRefusedArrivalsPerShard) {
  const query::Workload workload = MultiStream(/*utilization=*/2.0);
  constexpr int kShards = 3;
  const ShardAssignment assignment =
      AssignShards(workload.plan, kShards, 0x5eedc0de);
  AdmissionConfig config;
  config.enabled = true;
  config.tuples_per_window = 20;
  config.window_seconds = 0.5;
  AdmissionController admission(workload.plan, assignment, config);
  const std::vector<stream::ArrivalTable> shards =
      RouteArrivals(workload.plan, assignment, workload.arrivals, &admission);

  // Replay the documented call sequence — every arrival in table order, its
  // subscribed shards ascending — on a fresh controller.
  std::vector<std::set<stream::StreamId>> subscribed;
  for (int s = 0; s < kShards; ++s) {
    subscribed.push_back(SubscribedStreams(workload.plan, assignment, s));
  }
  AdmissionController replay(workload.plan, assignment, config);
  std::vector<std::vector<stream::Arrival>> want(kShards);
  std::vector<int64_t> offered(kShards, 0);
  for (const stream::Arrival& arrival : workload.arrivals.arrivals) {
    for (int s = 0; s < kShards; ++s) {
      const size_t i = static_cast<size_t>(s);
      if (!subscribed[i].count(arrival.stream)) continue;
      ++offered[i];
      if (replay.Admit(s, arrival.stream, arrival.time)) {
        want[i].push_back(arrival);
      }
    }
  }

  ASSERT_EQ(shards.size(), static_cast<size_t>(kShards));
  EXPECT_GT(admission.dropped(), 0) << "the budget must refuse some work";
  EXPECT_EQ(admission.dropped_per_shard(), replay.dropped_per_shard());
  for (int s = 0; s < kShards; ++s) {
    const size_t i = static_cast<size_t>(s);
    const stream::ArrivalTable& sub = shards[i];
    ASSERT_EQ(sub.size(), static_cast<int64_t>(want[i].size()))
        << "shard " << s;
    for (size_t k = 0; k < want[i].size(); ++k) {
      EXPECT_EQ(sub.arrivals[k].id, want[i][k].id);
      EXPECT_EQ(sub.arrivals[k].stream, want[i][k].stream);
    }
    // Every offered (arrival, shard) pair is routed or refused, never both.
    EXPECT_EQ(sub.size() + admission.dropped_per_shard()[i], offered[i])
        << "shard " << s;
  }
}

}  // namespace
}  // namespace aqsios::sched
