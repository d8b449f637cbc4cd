// Public facade of the aqsios-sched library.
//
// Two entry points:
//  * Simulate(workload, policy)   — run a generated §8 testbed workload under
//                                   a scheduling policy and return its QoS;
//  * Dsms                         — incremental API for applications:
//                                   register continuous queries, feed
//                                   arrivals, pick a policy, run.

#ifndef AQSIOS_CORE_DSMS_H_
#define AQSIOS_CORE_DSMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rebalance.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "query/workload.h"
#include "sched/admission.h"
#include "sched/policy.h"
#include "sched/shard_router.h"

namespace aqsios::core {

struct SimulationOptions {
  exec::SchedulingLevel level = exec::SchedulingLevel::kQueryLevel;
  sched::SharingStrategy sharing_strategy = sched::SharingStrategy::kPdt;
  /// Charge scheduling overhead to the virtual clock, one cheapest-operator
  /// cost per priority computation/comparison (§9.2, Figures 13–14).
  bool charge_scheduling_overhead = false;
  /// Online cost/selectivity calibration (sched/calibration.h,
  /// docs/calibration.md), §10's dynamic-environment support: decayed
  /// per-unit estimators feed epoch-batched targeted priority re-keys
  /// through the kinetic index. Query-level only; incompatible with
  /// `rebalance`. Off by default — off is byte-identical to
  /// pre-calibration builds.
  sched::CalibrationConfig calibration;
  /// Mid-run statistics drift of a query subset (stream/drift.h): the
  /// workload scenario calibration exists for. Composes with batching;
  /// off by default and byte-inert when off.
  stream::DriftConfig drift;
  metrics::QosCollector::Options qos;
  /// Optional event tracer forwarded to the engine (observation-only; the
  /// caller owns the tracer and exports it after the run).
  obs::EventTracer* tracer = nullptr;
  /// Optional live-telemetry hub (obs/telemetry.h, docs/telemetry.md). Must
  /// have at least `shards` cells; each shard engine publishes into its own
  /// cell and the routing pass publishes routed/admission counts, so a
  /// TelemetrySampler thread can watch the run live. Observation-only:
  /// attaching a hub never changes any result (pinned by
  /// tests/obs_telemetry_test.cc). The caller owns the hub; it must outlive
  /// the run.
  obs::TelemetryHub* telemetry = nullptr;
  /// Per-tuple stage-attribution sample period (see obs/attribution.h);
  /// 0 disables attribution.
  int64_t attribution_sample_every = 0;
  /// Tuple-train batching (exec::EngineConfig::batch_size): maximum tuples
  /// drained from the picked unit per scheduling decision. 1 = classic
  /// per-tuple dispatch (the default: every train is one tuple); 0 = drain
  /// the whole queue; k > 1 amortizes one decision — and its §9.2 overhead
  /// charge — over up to k tuples.
  int batch_size = 1;
  /// Optional time-quantum cap on the train (exec::EngineConfig::
  /// batch_quantum): expected-cost budget per dispatch in simulated
  /// seconds; 0 disables. Any positive value counts as batching even at
  /// batch_size 1 (train counters count, columnar kernels may engage).
  SimTime batch_quantum = 0.0;
  /// Columnar (SoA) kernel execution of batched chain trains
  /// (exec::EngineConfig::use_columnar_kernels, docs/performance.md).
  /// Results are bit-identical either way; on by default, off measures the
  /// scalar train floor. Only engages when batching is configured.
  bool use_columnar_kernels = true;

  /// Shard-parallel runtime (core/sharded_dsms.h, docs/scaling.md): number
  /// of shards K the query population is partitioned into. 1 = the classic
  /// single-scheduler runtime, byte-identical to before sharding existed.
  /// K > 1 is a documented scheduling variant — K independent
  /// scheduler+engine pairs on private virtual clocks with exactly-merged
  /// metrics; results are deterministic in (workload, policy, K, shard_seed)
  /// and independent of shard_threads.
  int shards = 1;
  /// Worker threads executing shards; 0 = min(hardware threads, shards).
  /// Never affects results, only wall-clock.
  int shard_threads = 0;
  /// Seed of the shard-assignment hash (sched/shard_router.h):
  /// shard(q) = MixKeys(shard_seed, anchor(q)) mod K.
  uint64_t shard_seed = 0x5eedc0de;

  /// Elastic shard rebalancing and work stealing (core/rebalance.h,
  /// docs/scaling.md). Off by default — every existing configuration is
  /// byte-identical to pre-elastic builds. When enabled, the run takes the
  /// epoch-driven elastic path (for any `shards`, including 1, where it
  /// still reproduces the classic engine byte for byte) and whole placement
  /// groups migrate between shards when the busy-time imbalance exceeds the
  /// hysteresis band. Incompatible with tracer/calibration/shed/admission
  /// (checked).
  RebalanceConfig rebalance;

  /// QoS-aware load shedding at the sources (exec::ShedConfig,
  /// docs/overload.md). Off by default: the engine and its reports stay
  /// byte-identical to pre-shedding builds.
  exec::ShedConfig shed;
  /// Per-class admission control while routing arrivals to shards
  /// (sched/admission.h); only meaningful when shards > 1. Off by default.
  sched::AdmissionConfig admission;
};

struct RunResult {
  std::string policy_name;
  metrics::QosSnapshot qos;
  exec::RunCounters counters;
};

/// The sharing objective matching a policy (BSD policies maximize Φ-based
/// aggregates; everything else uses the HNR objective).
sched::SharingObjective ObjectiveForPolicy(sched::PolicyKind kind);

/// Engine configuration implied by `options` for `policy`.
/// `min_operator_cost` is the §9.2 overhead unit (the *full* plan's
/// cheapest operator cost — system-wide even when the engine runs one
/// shard's sub-plan); it is applied only when charge_scheduling_overhead
/// is set.
exec::EngineConfig MakeEngineConfig(const SimulationOptions& options,
                                    const sched::PolicyConfig& policy,
                                    SimTime min_operator_cost);

/// Runs `workload` under `policy` and returns QoS metrics plus counters.
RunResult Simulate(const query::Workload& workload,
                   const sched::PolicyConfig& policy,
                   const SimulationOptions& options = {});

/// Lower-level variant for callers that assembled plan and arrivals
/// themselves.
RunResult SimulatePlan(const query::GlobalPlan& plan,
                       const stream::ArrivalTable& arrivals,
                       const sched::PolicyConfig& policy,
                       const SimulationOptions& options = {});

/// Incremental DSMS facade.
///
///   Dsms dsms;
///   auto google = dsms.AddQuery(spec_google);
///   dsms.SetArrivals(std::move(table));
///   RunResult r = dsms.Run(sched::PolicyConfig::Of(sched::PolicyKind::kHnr));
class Dsms {
 public:
  explicit Dsms(
      query::SelectivityMode mode = query::SelectivityMode::kIndependent);

  /// Registers a continuous query; QuerySpec::id is assigned by the DSMS.
  /// Returns the assigned id.
  query::QueryId AddQuery(query::QuerySpec spec);

  /// Declares that the given (already registered, single-stream) queries
  /// share their identical leaf operator.
  void AddSharingGroup(std::vector<query::QueryId> members);

  /// Sets the input arrivals (all streams merged, time-ordered).
  void SetArrivals(stream::ArrivalTable arrivals);

  int num_queries() const { return static_cast<int>(specs_.size()); }

  /// Compiles the registered queries and runs the simulation.
  RunResult Run(const sched::PolicyConfig& policy,
                const SimulationOptions& options = {}) const;

 private:
  query::SelectivityMode mode_;
  std::vector<query::QuerySpec> specs_;
  std::vector<query::SharingGroup> groups_;
  stream::ArrivalTable arrivals_;
};

}  // namespace aqsios::core

#endif  // AQSIOS_CORE_DSMS_H_
