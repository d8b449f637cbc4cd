// Shard assignment and arrival routing for the sharded runtime.
//
// Sharding partitions the query population into K disjoint shards, each run
// by its own scheduler + engine on a private virtual clock (see
// core/sharded_dsms.h for the execution model and determinism contract).
// This file owns the two pure-routing pieces:
//
//  * AssignShards — the documented, seeded hash placement. Query q lands on
//
//        shard(q) = MixKeys(seed, anchor(q)) mod K
//
//    where anchor(q) is the smallest member id of q's sharing group (so a
//    whole §7 sharing group co-locates and its shared leaf operator still
//    executes once per tuple), or q's own id for standalone queries. The
//    placement is a pure function of (plan, K, seed): stable across runs,
//    thread counts, and platforms.
//
//  * RouteArrivals — splits the global arrival table into per-shard
//    sub-tables in one sequential pass. Each arrival is appended to the
//    sub-table of every shard subscribed to its stream, in ascending shard
//    order, after asking the optional admission controller.
//
// Shard-local sub-tables preserve global Arrival::id values and relative
// time order, so every frozen per-arrival draw inside a shard is identical
// to the single-engine run's.

#ifndef AQSIOS_SCHED_SHARD_ROUTER_H_
#define AQSIOS_SCHED_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "query/plan.h"
#include "stream/tuple.h"

namespace aqsios::sched {

/// The placement computed by AssignShards.
struct ShardAssignment {
  int num_shards = 1;
  uint64_t seed = 0;
  /// Shard of each query, indexed by global query id.
  std::vector<int> shard_of_query;
  /// Global query ids of each shard, ascending within a shard. A shard may
  /// be empty (hashing gives no occupancy guarantee at small query counts).
  std::vector<std::vector<query::QueryId>> queries_of_shard;
};

/// Computes the seeded hash placement documented above. `num_shards` >= 1.
ShardAssignment AssignShards(const query::GlobalPlan& plan, int num_shards,
                             uint64_t seed);

// Forward declaration (sched/admission.h); owned by the caller.
class AdmissionController;

/// Splits the time-ordered `arrivals` into one sub-table per shard of
/// `assignment`: each arrival goes to every shard with a query reading its
/// stream, in ascending shard order. When `admission` is non-null it is asked
/// before every (arrival, shard) append, and a refused arrival is skipped for
/// that shard. A shard's routed count is its sub-table's size.
std::vector<stream::ArrivalTable> RouteArrivals(
    const query::GlobalPlan& plan, const ShardAssignment& assignment,
    const stream::ArrivalTable& arrivals,
    AdmissionController* admission = nullptr);

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_SHARD_ROUTER_H_
