// The benchmark's fixed workloads.
//
// Each workload is a generator (seed, scale) -> (plan, arrival table) plus
// the policy and simulation options it runs under. The simulator only ever
// sees the generated plan and arrivals; sizes are fixed here so every run of
// one workload does the same amount of work, and `scale` shrinks the
// arrival count for the smoke test only.

#ifndef AQSIOS_BENCHMARK_WORKLOADS_H_
#define AQSIOS_BENCHMARK_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dsms.h"
#include "core/sharded_dsms.h"
#include "obs/tracer.h"
#include "query/plan.h"
#include "sched/policy.h"
#include "stream/tuple.h"

namespace aqsios::benchmark {

/// Wall-clock seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

struct Inputs {
  query::GlobalPlan plan;
  stream::ArrivalTable arrivals;
};

/// The accounting identity a workload's result must satisfy.
enum class Identity {
  kNone,
  /// Single stream, no sharing, no shedding: every (arrival, query) pair
  /// ends emitted or filtered.
  kEmittedPlusFiltered,
  /// Shedding and admission: every offered tuple ends emitted, filtered or
  /// shed, and offered plus admission-refused tuples cover every
  /// (arrival, query) pair.
  kOfferedAndRefused,
  /// Elastic sharding over per-group streams: every arrival is delivered by
  /// exactly one owning shard.
  kRoutedOnce,
};

/// Shard threads of the traced pass's parallel twin. The measured runs of
/// the sharded workloads execute their shards on one thread: on a shared
/// host, thread wake-ups at every epoch barrier and ring hand-off made the
/// fastest repetition of a 2-thread run vary by 17-22% between runs, against
/// 3-9% on one thread. The twin reports what the threads buy.
constexpr int kParallelThreads = 2;

struct WorkloadSpec {
  std::string name;
  Inputs (*generate)(uint64_t seed, double scale);
  sched::PolicyConfig policy;
  core::SimulationOptions options;
  Identity identity = Identity::kNone;

  /// Runs through core::SimulateShardedPlan (and reports core.* metrics).
  bool sharded() const {
    return options.shards > 1 || options.rebalance.enabled;
  }
};

/// Every workload, in report order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The simulation options of one run of `w` on `inputs` (w.options plus the
/// knobs that depend on the generated inputs).
core::SimulationOptions RunOptions(const WorkloadSpec& w,
                                   const Inputs& inputs);

/// Σ over arrivals of the number of queries reading the arrival's stream:
/// the (arrival, query) deliveries a run is asked to perform.
int64_t AttemptedDeliveries(const Inputs& inputs);

/// One simulation of a workload.
struct RunOutcome {
  core::RunResult result;
  /// Sharded runs only: per-shard accounting and the query placement.
  std::vector<core::ShardRunStats> shard_stats;
  sched::ShardAssignment assignment;
  double load_imbalance = 0.0;
  /// Wall-clock seconds of the simulate call.
  double wall_s = 0.0;
};

/// Runs `inputs` under `w`'s policy with `options` through the public entry
/// point the workload uses: core::SimulatePlan for one engine,
/// core::SimulateShardedPlan (with optional per-shard tracers) for shards.
RunOutcome Run(const WorkloadSpec& w, const Inputs& inputs,
               const core::SimulationOptions& options,
               const std::vector<obs::EventTracer*>* shard_tracers = nullptr);

/// Checks w.identity on a run's counters; returns "" when it holds, else a
/// description of the mismatch.
std::string CheckIdentity(const WorkloadSpec& w, const Inputs& inputs,
                          const RunOutcome& run);

/// Share of the attempted (arrival, query) deliveries that reached a query:
/// (tuples_offered - tuples_shed) / attempted under shedding, 1 when
/// neither shedding nor admission can refuse work.
double DeliveredFraction(const WorkloadSpec& w, const Inputs& inputs,
                         const RunOutcome& run);

}  // namespace aqsios::benchmark

#endif  // AQSIOS_BENCHMARK_WORKLOADS_H_
