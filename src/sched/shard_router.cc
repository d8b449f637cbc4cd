#include "sched/shard_router.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "sched/admission.h"

namespace aqsios::sched {

ShardAssignment AssignShards(const query::GlobalPlan& plan, int num_shards,
                             uint64_t seed) {
  AQSIOS_CHECK_GE(num_shards, 1);
  ShardAssignment assignment;
  assignment.num_shards = num_shards;
  assignment.seed = seed;
  assignment.shard_of_query.resize(
      static_cast<size_t>(plan.num_queries()));
  assignment.queries_of_shard.resize(static_cast<size_t>(num_shards));
  for (const query::CompiledQuery& q : plan.queries()) {
    query::QueryId anchor = q.id();
    const int group = plan.SharingGroupOf(q.id());
    if (group >= 0) {
      const std::vector<query::QueryId>& members =
          plan.sharing_groups()[static_cast<size_t>(group)].members;
      anchor = *std::min_element(members.begin(), members.end());
    }
    const int shard = static_cast<int>(
        MixKeys(seed, static_cast<uint64_t>(anchor)) %
        static_cast<uint64_t>(num_shards));
    assignment.shard_of_query[static_cast<size_t>(q.id())] = shard;
    assignment.queries_of_shard[static_cast<size_t>(shard)].push_back(q.id());
  }
  return assignment;
}

std::vector<stream::ArrivalTable> RouteArrivals(
    const query::GlobalPlan& plan, const ShardAssignment& assignment,
    const stream::ArrivalTable& arrivals, AdmissionController* admission) {
  AQSIOS_CHECK_EQ(static_cast<size_t>(plan.num_queries()),
                  assignment.shard_of_query.size());
  // Subscribed shards per stream id: sorted, deduplicated.
  std::vector<std::vector<int>> shards_of_stream(
      static_cast<size_t>(plan.num_streams()));
  const auto subscribe = [&](stream::StreamId stream, query::QueryId q) {
    AQSIOS_CHECK_LT(static_cast<size_t>(stream), shards_of_stream.size());
    shards_of_stream[static_cast<size_t>(stream)].push_back(
        assignment.shard_of_query[static_cast<size_t>(q)]);
  };
  for (const query::CompiledQuery& q : plan.queries()) {
    const query::QuerySpec& spec = q.spec();
    subscribe(spec.left_stream, q.id());
    if (spec.is_multi_stream()) {
      subscribe(spec.right_stream, q.id());
      for (const query::JoinStage& stage : spec.extra_stages) {
        subscribe(stage.stream, q.id());
      }
    }
  }
  for (std::vector<int>& shards : shards_of_stream) {
    std::sort(shards.begin(), shards.end());
    shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  }

  std::vector<stream::ArrivalTable> out(
      static_cast<size_t>(assignment.num_shards));
  for (const stream::Arrival& arrival : arrivals.arrivals) {
    AQSIOS_DCHECK_LT(static_cast<size_t>(arrival.stream),
                     shards_of_stream.size());
    for (int shard : shards_of_stream[static_cast<size_t>(arrival.stream)]) {
      if (admission != nullptr &&
          !admission->Admit(shard, arrival.stream, arrival.time)) {
        continue;
      }
      out[static_cast<size_t>(shard)].arrivals.push_back(arrival);
    }
  }
  return out;
}

}  // namespace aqsios::sched
