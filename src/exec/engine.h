// The discrete-event DSMS execution engine.
//
// The engine simulates a single-CPU stream processor on a virtual clock:
// arrivals from the arrival table are delivered to the leaf units of their
// stream (a leaf's queue is a range over its stream's arrivals, so one
// delivery serves every leaf); at each scheduling point the attached
// Scheduler chooses a unit (or a cluster of units, §6.2.3) and the engine
// runs the pipelined operator segment on a train of head tuples (one tuple
// unless batching is configured), advancing the clock by the operator costs
// actually incurred. Tuples surviving to a query root are reported to the
// QosCollector with their response time and slowdown.
//
// Scheduling overhead can be charged to the virtual clock (Figures 13–14):
// each priority computation/comparison reported by the scheduler costs
// `overhead_op_cost` seconds (the paper uses the cheapest operator cost).

#ifndef AQSIOS_EXEC_ENGINE_H_
#define AQSIOS_EXEC_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/sim_time.h"
#include "exec/unit_builder.h"
#include "exec/window_join.h"
#include "metrics/qos.h"
#include "obs/attribution.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "query/plan.h"
#include "sched/calibration.h"
#include "sched/scheduler.h"
#include "stream/drift.h"
#include "stream/tuple.h"

namespace aqsios::exec {

/// QoS-aware load shedding at the sources (overload survival,
/// docs/overload.md). When the total queued-tuple population reaches
/// `queue_cap`, arrivals destined for the *sheddable* leaf units are dropped
/// at admission instead of enqueued. The sheddable set is the bottom
/// `shed_fraction` of the leaf units ranked by the attached policy's
/// marginal-slowdown line slope (Scheduler::ShedPriority, ties by unit id),
/// computed once before the run — so shedding is deterministic in virtual
/// time, policy-consistent (the policy loses the tuples it valued least),
/// and schedule-invariant across repeats. Disabled (the default) leaves the
/// engine bit-identical to one built before shedding existed.
struct ShedConfig {
  bool enabled = false;
  /// Total queued tuples at which sheddable sources start dropping.
  int64_t queue_cap = 1 << 16;
  /// Fraction of leaf units (lowest shed priority first) that may shed;
  /// 1.0 turns queue_cap into a hard cap on queued memory.
  double shed_fraction = 1.0;
};

struct EngineConfig {
  SchedulingLevel level = SchedulingLevel::kQueryLevel;
  sched::SharingStrategy sharing_strategy = sched::SharingStrategy::kPdt;
  sched::SharingObjective sharing_objective = sched::SharingObjective::kHnr;
  /// Simulated cost (seconds) of one scheduling computation/comparison;
  /// 0 disables overhead charging.
  SimTime overhead_op_cost = 0.0;

  /// Optional event tracer. Observation-only: attaching a tracer never
  /// changes the simulation (every site is a branch on this pointer — the
  /// null-sink fast path pinned by tests/obs_tracer_test.cc).
  obs::EventTracer* tracer = nullptr;

  /// Optional live-telemetry snapshot cell (obs/telemetry.h). The engine
  /// publishes its hot counters into the cell at scheduling points so a
  /// TelemetrySampler thread can observe the run live. Same discipline as
  /// `tracer`: observation-only, one branch on a null pointer when disabled,
  /// never feeds the virtual clock (pinned by tests/obs_telemetry_test.cc).
  obs::SnapshotCell* telemetry = nullptr;

  /// Publish into the cell every 2^ceil(log2(N)) scheduling points (the
  /// engine rounds up to a power of two and tests a mask). 16 keeps the
  /// publish cost well under the sampler's wall-clock resolution.
  int telemetry_publish_every = 16;

  /// Per-tuple stage-attribution sample period N: every N-th arrival id's
  /// emissions get their response time decomposed into queue wait /
  /// scheduling overhead / processing (see obs/attribution.h). 0 disables.
  int64_t attribution_sample_every = 0;

  /// Batched (train) execution: one scheduling decision drains up to
  /// `batch_size` tuples from the picked unit and runs them through the
  /// segment as a train, so priority re-keys and the §9.2 overhead charge
  /// are amortized over the whole batch (Aurora's train scheduling, the
  /// regime Figure 14 analyzes). 1 = per-tuple dispatch (every train holds
  /// one tuple); 0 = unbounded (drain the whole queue).
  int batch_size = 1;

  /// Optional time-quantum budget: when > 0, a train is additionally capped
  /// at floor(batch_quantum / expected segment cost) tuples (minimum 1).
  /// Any positive value counts as batching even at batch_size = 1: the
  /// train counters count and the columnar kernels engage, which is how the
  /// equivalence tests compare trains of one with per-tuple dispatch.
  SimTime batch_quantum = 0.0;

  /// Columnar (SoA) kernel execution of batched chain trains: the train's
  /// arrival attributes / ids / timestamps are gathered once into
  /// arena-backed column vectors, and each fused run of stateless chain
  /// operators (unit_builder's FuseChainOps) is evaluated as one
  /// branch-free pass over the columns with selection-vector survivor
  /// compaction (docs/performance.md). Observable results are bit-identical
  /// to the scalar selection-vector pass — clock, counters, QoS, frozen
  /// filter draws (pinned by tests/exec_kernel_test.cc) — so the flag only
  /// selects an execution strategy; off measures the scalar engine floor.
  /// Engages only when batching is configured; traced and drift runs always
  /// take the scalar pass (they need per-invocation events, per-lane
  /// factors).
  bool use_columnar_kernels = true;

  /// Source-side load shedding (see ShedConfig above). Off by default.
  ShedConfig shed;

  /// Online cost/selectivity calibration (sched/calibration.h,
  /// docs/calibration.md): the engine's only statistics estimator, §10's
  /// run-time monitoring of costs and selectivities. Query-level scheduling
  /// only. Off by default — and off is byte-identical: the engine then never
  /// constructs the calibrator and every hot-path site is one branch on a
  /// null pointer.
  sched::CalibrationConfig calibration;

  /// Optional per-stream row index of the arrival table (stream::
  /// BuildStreamRowIndex); null = the engine builds its own. Engines that
  /// run over one table (the elastic runner's) share one index. Must
  /// outlive the engine.
  const stream::StreamRowIndex* stream_rows = nullptr;

  /// Mid-run statistics drift of a query subset (stream/drift.h) — the
  /// scenario calibration exists for. Composes with trains (each tuple keeps
  /// its own factors); requires no sharing groups and single-stream queries
  /// only (checked). Off by default; off is byte-identical (the scale
  /// factors are exactly 1.0 and never computed).
  stream::DriftConfig drift;
};

/// Bucket layout of queue-length histograms: queue lengths are small
/// integers, so the first bucket edge sits at 1 tuple. (A named constant
/// rather than an inline temporary: GCC 12 reports a false-positive
/// -Wdangling-pointer on the temporary in a default member initializer.)
inline constexpr obs::HistogramOptions kQueueLengthHistogram{.min_value = 1.0};

/// Execution counters of one run.
struct RunCounters {
  int64_t scheduling_points = 0;
  int64_t unit_executions = 0;
  int64_t operator_invocations = 0;
  int64_t tuples_emitted = 0;
  int64_t tuples_filtered = 0;
  int64_t composites_generated = 0;
  int64_t overhead_operations = 0;
  /// Statistics-estimator epochs fired (CalibrationConfig::enabled only).
  int64_t adaptation_ticks = 0;

  /// Decision shape: Σ candidates examined and Σ priority computations over
  /// all scheduling points (the per-policy `decisions` block in reports).
  int64_t decision_candidates = 0;
  int64_t priority_computations = 0;

  /// Batching only (all zero unless batch_size != 1 or batch_quantum > 0,
  /// and the report writer omits them then so default-path JSON is
  /// byte-identical): dispatches, tuples they drained, and the largest
  /// single train.
  int64_t train_dispatches = 0;
  int64_t train_tuples = 0;
  int64_t max_train_tuples = 0;

  /// Load shedding only (both stay zero — and the report writer omits the
  /// shed block — unless ShedConfig::enabled): leaf-queue admission
  /// opportunities offered to the engine, and how many of them were shed.
  /// Shed tuples never reach the QoS collector, so every slowdown statistic
  /// is over delivered tuples only; the shed ratio is reported alongside so
  /// the loss is first-class instead of silently vanishing.
  int64_t tuples_offered = 0;
  int64_t tuples_shed = 0;

  /// Online calibration only (all zero — and the report writer omits the
  /// calibration block — unless CalibrationConfig::enabled; its epochs are
  /// adaptation_ticks): units whose stats were rewritten (summed over
  /// epochs), and how many of those rewrites re-keyed a unit with pending
  /// work. The drift gauges are the final-epoch mean |estimate/static - 1|
  /// over all units.
  int64_t calibration_updates = 0;
  int64_t calibration_rekeys = 0;
  double calibration_cost_drift = 0.0;
  double calibration_selectivity_drift = 0.0;

  SimTime busy_time = 0.0;      // operator processing time
  SimTime overhead_time = 0.0;  // charged scheduling overhead
  SimTime end_time = 0.0;       // virtual time when all work drained

  /// Run-time memory (queued tuples): peak and time-weighted average. The
  /// quantity Chain ([5], Table 3) minimizes.
  int64_t peak_queued_tuples = 0;
  double avg_queued_tuples = 0.0;

  /// Distribution of total queued tuples observed at each scheduling point.
  obs::HistogramSummary queue_length;
  /// Distribution of busy time per unit execution (seconds).
  obs::HistogramSummary exec_busy;

  /// Full histograms behind the two summaries above. Kept so per-shard
  /// counters merge exactly: quantiles are pure functions of the merged
  /// buckets, so Merge can rebuild the summaries from combined counts
  /// instead of approximating from pre-digested quantiles.
  obs::Histogram queue_length_hist{kQueueLengthHistogram};
  obs::Histogram exec_busy_hist;

  /// Sampled response-time decomposition (empty when sampling is disabled).
  obs::StageAttribution attribution;

  /// Folds another (disjoint) run's counters into this one, exactly: counts
  /// and times sum; end_time and max_train_tuples take the max (shards run
  /// concurrently on the virtual clock); peak_queued_tuples sums (concurrent
  /// shards each hold their peak's memory); avg_queued_tuples re-weights by
  /// each run's queued-tuple-seconds over the merged end_time; and the
  /// histogram summaries are rebuilt from the merged full histograms.
  void Merge(const RunCounters& other);

  /// busy_time / end_time: fraction of the run the CPU spent on operators.
  double MeasuredUtilization() const {
    return end_time > 0.0 ? busy_time / end_time : 0.0;
  }

  /// tuples_shed / tuples_offered; 0 when shedding was disabled.
  double ShedRatio() const {
    return tuples_offered > 0 ? static_cast<double>(tuples_shed) /
                                    static_cast<double>(tuples_offered)
                              : 0.0;
  }

  std::string ToString() const;
};

class Engine {
 public:
  /// All pointers must outlive the engine. `collector` may be null when only
  /// counters are of interest.
  Engine(const query::GlobalPlan* plan, const stream::ArrivalTable* arrivals,
         const EngineConfig& config, sched::Scheduler* scheduler,
         metrics::QosCollector* collector);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the simulation until all arrivals are processed and every queue is
  /// drained. Call at most once. Exactly equivalent to Begin();
  /// RunUntil(+inf); Finish() — which is how the elastic sharded runner
  /// drives the engine in virtual-time epochs instead.
  RunCounters Run();

  /// Epoch-driven protocol (core/sharded_dsms.cc elastic runner). Begin
  /// once, RunUntil per epoch barrier, Finish once after every engine
  /// drained. With barrier = +inf the three calls replay Run() byte for
  /// byte.
  void Begin();
  /// Advances the simulation until the clock reaches `barrier` or the engine
  /// pauses idle (no ready work, next arrival beyond the barrier). Arrival
  /// delivery is clamped to min(now, barrier) so at every return the arrival
  /// cursor sits exactly at the first arrival after the barrier — the
  /// invariant group migration relies on. Returns true when fully drained
  /// (cursor exhausted, no pending work); a drained engine is merely paused
  /// and is revived by InjectGroup / InjectStolenTrain.
  bool RunUntil(SimTime barrier);
  /// Settles final accounting and returns the counters. Call once.
  RunCounters Finish();

  // --- Elastic shard mode (core/rebalance.h) ---
  /// Enters elastic mode before Begin: the engine holds the *full* plan and
  /// the global arrival table, but only delivers arrivals to the placement
  /// groups it owns (`owned_groups` bitmap over `num_groups` groups;
  /// `group_of_query` maps every query to its group). Incompatible with
  /// tracing, calibration, and load shedding (checked).
  void ConfigureElastic(const std::vector<int>& group_of_query,
                        int num_groups, std::vector<uint8_t> owned_groups);

  /// Scheduler + queue state of one placement group in flight between
  /// engines.
  struct GroupState {
    /// (unit id, moved ring) for every member with ring entries: internal
    /// queues, and leaves' stolen prefixes.
    std::vector<std::pair<int, sched::TupleQueue>> unit_queues;
    /// (leaf unit id, first pending row) for every member leaf with a live
    /// range; the range runs to the delivery frontier, which source and
    /// target share at the barrier.
    std::vector<std::pair<int, int64_t>> leaf_ranges;
    /// (query id, moved per-stage window-join state) for member queries.
    std::vector<std::pair<
        int, std::vector<std::unique_ptr<SymmetricHashJoinState>>>>
        join_states;
    int64_t queued = 0;
    /// The source's arrival cursor; the target's must equal it.
    int64_t delivered = 0;
  };
  /// Quiesced handoff, called only at an epoch barrier: moves the group's
  /// queues and window-join state out and drops ownership. The group's
  /// frozen randomness is keyed on global ids, so the target replays
  /// identical outcomes. Like the other three barrier calls below, it
  /// leaves the scheduler to one canonical ResyncQueues at the start of the
  /// next RunUntil, so a barrier with many migrations rebuilds each
  /// engine's scheduler state once.
  GroupState ExtractGroup(int group);
  /// Target side of a migration: bumps the clock to the barrier (paused-idle
  /// targets sit below it), installs the state, takes ownership.
  void InjectGroup(int group, GroupState state, SimTime barrier);

  /// Work stealing: pops up to `max_tuples` head entries of the fullest
  /// stateless (kQueryChain/kRemainder) queue for an idle thief — a frozen
  /// prefix; a leaf stays subscribed here. Ownership is unchanged — the
  /// thief only drains the handed-off train. Returns false when no
  /// stealable backlog exists.
  bool ExtractStolenTrain(int64_t max_tuples, int* unit_out,
                          std::vector<sched::QueueEntry>* entries);
  /// Thief side of a steal; the thief must be fully idle so the handed-off
  /// prefix stays FIFO-ordered in its (empty) queue's ring.
  void InjectStolenTrain(int unit_id,
                         const std::vector<sched::QueueEntry>& entries,
                         SimTime barrier);

  /// Elastic-mode observers for the rebalance controller.
  SimTime virtual_now() const { return now_; }
  SimTime busy_time() const { return counters_.busy_time; }
  int64_t queued_tuples() const { return queued_tuples_; }
  /// Cumulative busy seconds attributed to each placement group (the
  /// executed unit's group, including stolen work executed here).
  const std::vector<double>& group_busy() const { return group_busy_; }
  /// Arrivals delivered to at least one owned leaf queue (the elastic
  /// counterpart of the router's per-shard routed count).
  int64_t elastic_arrivals_routed() const { return elastic_arrivals_routed_; }

  const sched::UnitTable& units() const { return built_.units; }

 private:
  void DeliverArrivalsUpTo(SimTime time);
  /// Delivers arrivals_[next_arrival_] to the leaves of its stream.
  void DeliverArrival(const stream::Arrival& arrival);
  /// Records the per-(arrival, leaf) kEnqueue / kShed events of a delivery
  /// in loop order; `shed_from` is the delivery's shed position and
  /// `queued_before` the queued-tuple count before it.
  void TraceDelivery(const stream::Arrival& arrival, int shed_from,
                     int64_t queued_before);
  /// Pushes onto an internal unit's queue. `arrival` is the *index* into
  /// the engine's arrival table (queue entries carry indexes; Arrival::id
  /// stays global — see sched/unit.h).
  void Enqueue(int unit, stream::ArrivalId arrival, SimTime arrival_time);
  /// Starts / ends leaf `unit`'s subscription to its stream's feed (elastic
  /// ownership changes; every leaf is subscribed outside elastic mode).
  void SubscribeLeaf(int unit);
  int64_t UnsubscribeLeaf(int unit);

  /// Batching only (else every train is one entry): number of head entries
  /// the next train on `unit` drains (>= 1; capped by batch_size, the
  /// batch_quantum budget, and the queue).
  size_t TrainLength(const sched::Unit& unit) const;
  /// The dispatcher: drains TrainLength entries of the picked unit and runs
  /// them as a train. Per-tuple semantics (timestamps, QoS, filter outcomes)
  /// are preserved; only the dispatch is amortized.
  void ExecuteUnitTrain(int unit_id);
  /// Pops `count` head entries of `unit` into the columns or train_.
  void DrainTrain(sched::Unit& unit, size_t count, bool columnar);
  /// Runs `train[0, count)` through a chain segment (kQueryChain /
  /// kRemainder): one entry as RunChainOps + EmitSingle, more through
  /// ExecuteChainPass — operator-at-a-time over the surviving run,
  /// compacting survivors in place. Safe because filter outcomes are frozen
  /// per (arrival, query, ordinal) — evaluation order cannot change them.
  void ExecuteChainTrain(const sched::Unit& unit,
                         const sched::QueueEntry* train, size_t count);
  void ExecuteChainPass(const sched::Unit& unit,
                        const sched::QueueEntry* train, size_t count);

  /// Columnar counterpart of ExecuteChainTrain: runs the gathered column
  /// train through the unit's one fused run (a contiguous
  /// built_.chain_fusion) over the query's flat op table (chains_ below).
  /// The branch-free predicate kernels count the lanes that reach each
  /// operator; the counts drive an exact replay of the scalar pass's
  /// operator-at-a-time clock/counter sequence (the same multiply-and-add
  /// per operator as ChargeBulk, in the same order) before survivors are
  /// compacted and the root operator emits in selection order.
  void ExecuteChainTrainColumnar(const sched::Unit& unit, size_t count);
  /// Grows the column scratch to hold `n` tuples (power-of-two growth;
  /// cache-line-aligned columns carved from column_arena_).
  void EnsureColumnCapacity(size_t n);

  /// Charges processing time to the clock.
  void Charge(SimTime cost);

  /// Charges one execution of a non-root chain operator at `cost` for every
  /// lane of the scalar train pass (train_sel_) in one bulk step: `cost *
  /// lanes`, or `cost * Σ lane factors` under drift. Nothing observes the
  /// clock between same-operator charges within a train, so the columnar
  /// kernels replay a fused run with the same multiply-and-add per operator
  /// (O(ops), not O(invocations)) and their flag stays bit-inert.
  void ChargeBulk(SimTime cost);

  /// Sets charge_scale_ / sel_scale_ to query q's drift factors for a tuple
  /// that arrived at `arrival_time` (drift runs only).
  void SetDriftFactors(query::QueryId q, SimTime arrival_time);

  /// Whether the shared leaf operator of `group` passes `arrival` (one
  /// outcome for the whole group).
  bool SharedOpPasses(const query::OperatorSpec& op,
                      const stream::Arrival& arrival, int group) const;

  /// Runs chain operators [from, end) of single-stream query q on `arrival`
  /// from the flat op table (chains_), charging costs; returns true if the
  /// tuple survives. The one per-tuple chain path: chain and remainder
  /// units, shared-group members, drift and traced runs alike.
  bool RunChainOps(query::QueryId q, const stream::Arrival& arrival,
                   int from);

  void EmitSingle(const query::CompiledQuery& q, stream::ArrivalId arrival,
                  SimTime arrival_time);

  /// Counts a filter drop (and traces it when a tracer is attached).
  void DropTuple(query::QueryId q, int64_t arrival);

  /// Records the decomposed response time of an emission when the arrival id
  /// falls in the attribution sample. `dependency_delay` < 0 means "not a
  /// composite" (no dependency component recorded).
  void AttributeEmission(int64_t arrival, SimTime arrival_time,
                         SimTime dependency_delay);

  void ExecuteSharedGroup(const sched::Unit& unit,
                          const sched::QueueEntry& entry);
  void ExecuteOperator(const sched::Unit& unit,
                       const sched::QueueEntry& entry);
  /// Runs join input `input` (0 = left stream, 1 = right stream of the base
  /// join, >= 2 = extra-stage streams) on the head tuple.
  void ExecuteJoinInput(const sched::Unit& unit,
                        const sched::QueueEntry& entry, int input);

  /// Whether composite `identity` passes the op (frozen, order-independent).
  bool PassesComposite(const query::OperatorSpec& op, uint64_t identity,
                       query::QueryId q, int op_ordinal) const;

  /// Joins `entry` (freshly inserted on `side` of `stage`) against the
  /// opposite table and pushes every match up the pipeline.
  void ProbeAndPropagate(const query::CompiledQuery& q, int stage,
                         query::Side side,
                         const SymmetricHashJoinState::Entry& entry,
                         int32_t join_key);

  /// Moves a composite produced by stage `stage - 1` into stage `stage`, or
  /// through the common segment to emission when past the last stage.
  void PropagateComposite(const query::CompiledQuery& q, int stage,
                          const SymmetricHashJoinState::Entry& composite,
                          int32_t join_key);

  void EmitComposite(const query::CompiledQuery& q,
                     const SymmetricHashJoinState::Entry& composite);

  SymmetricHashJoinState& JoinState(query::QueryId q, int stage) {
    return *join_state_[static_cast<size_t>(q)][static_cast<size_t>(stage)];
  }

  const query::GlobalPlan* plan_;
  const stream::ArrivalTable* arrivals_;
  EngineConfig config_;
  sched::Scheduler* scheduler_;
  metrics::QosCollector* collector_;

  BuiltUnits built_;
  /// Present when config_.calibration.enabled.
  std::unique_ptr<sched::CostCalibrator> calibrator_;
  /// Delivery state of one input stream. A leaf's position is its index in
  /// `leaves` (ascending unit id): the order of the per-arrival loop the
  /// shed rule and per-entry notifications replay. What every delivery
  /// reads (the receiver count, the frontier, the idle bitmap) shares the
  /// first cache line.
  struct alignas(64) StreamDelivery {
    int64_t num_subscribed = 0;
    sched::StreamFeed feed;
    std::vector<int> leaves;
    /// Bit per position: the leaf is subscribed (owned, in elastic mode).
    std::vector<uint64_t> subscribed;
    /// Load shedding only. Bit per non-sheddable position;
    /// next_sheddable[x] = first sheddable position >= x (L if none);
    /// kept_from[x] = non-sheddable positions >= x; both for x in [0, L].
    std::vector<uint64_t> kept;
    std::vector<int32_t> next_sheddable;
    std::vector<int32_t> kept_from;
  };
  /// Indexed by stream id; sized once (leaf queues point into it).
  std::vector<StreamDelivery> streams_;
  /// Activates the idle receivers of a delivered row and notifies the
  /// scheduler (see DeliverArrival).
  void NotifyReceivers(StreamDelivery& stream, int64_t row, int shed_from);
  /// Position of each leaf unit within its stream (-1 for internal units).
  std::vector<int32_t> leaf_position_;
  /// The row index when the engine built its own (config_.stream_rows null).
  std::unique_ptr<stream::StreamRowIndex> own_stream_rows_;
  /// scheduler_->WantsEveryEnqueue(), read once.
  bool every_enqueue_ = false;
  /// Window-join state per query and stage (empty for single-stream
  /// queries). Stage 0 runs in ordered mode; composite-fed stages do not.
  std::vector<std::vector<std::unique_ptr<SymmetricHashJoinState>>>
      join_state_;

  /// Accrues the queued-tuples time integral up to the current clock.
  void AccrueQueueOccupancy();

  /// --- Elastic shard mode state (all inert when elastic_ is false) ---
  bool elastic_ = false;
  /// Placement group of each query / unit, and the members of each group
  /// (ConfigureElastic).
  std::vector<int> group_of_query_;
  std::vector<int> group_of_unit_;
  std::vector<std::vector<int>> units_of_group_;
  std::vector<std::vector<int>> queries_of_group_;
  /// Ownership bitmap over placement groups; the leaves of owned groups are
  /// the subscribed ones.
  std::vector<uint8_t> owned_groups_;
  /// Cumulative busy seconds per placement group (EWMA input).
  std::vector<double> group_busy_;
  int64_t elastic_arrivals_routed_ = 0;
  /// Queues moved since the scheduler last resynced (see ExtractGroup).
  bool resync_pending_ = false;

  SimTime now_ = 0.0;
  int64_t next_arrival_ = 0;
  /// Time of arrivals_[next_arrival_], +infinity once the table is
  /// exhausted: the run loop delivers only when an arrival is due.
  SimTime next_arrival_time_ = 0.0;
  int64_t queued_tuples_ = 0;
  SimTime last_occupancy_time_ = 0.0;
  double queued_tuple_seconds_ = 0.0;
  RunCounters counters_;
  bool ran_ = false;
  /// Scratch buffer reused across scheduling points.
  std::vector<int> picked_;
  /// Batching configured (batch_size != 1 or batch_quantum > 0). False
  /// makes every train one tuple long, leaves the train counters at zero,
  /// and keeps the columnar kernels off.
  bool batching_ = false;
  /// Load shedding engaged (config_.shed.enabled); false keeps
  /// DeliverArrivalsUpTo bit-identical to the pre-shedding engine.
  bool shedding_ = false;
  /// Statistics drift engaged (config_.drift.enabled). When false the scale
  /// factors below stay exactly 1.0 and every multiply is bit-inert.
  bool drifting_ = false;
  /// Drift factors of the tuple being executed, set per entry (per lane in
  /// a chain train) from its (query, arrival time) — never from now_, so
  /// charges stay schedule- and policy-independent.
  double charge_scale_ = 1.0;
  double sel_scale_ = 1.0;
  /// Drift runs: Σ of the undrifted operator costs charged so far — the
  /// plan cost of the run's invocations, which the calibrator sets against
  /// the drifted busy time (sched/calibration.h). Stays 0 otherwise.
  SimTime plan_busy_ = 0.0;
  /// Train scratch, reused across dispatches: the entries drained by a
  /// train of more than one tuple, the selection vector of indexes into it
  /// that still survive the chain pass, and (drift runs) each entry's
  /// (cost, selectivity) factors.
  std::vector<sched::QueueEntry> train_;
  std::vector<uint32_t> train_sel_;
  std::vector<std::pair<double, double>> train_scale_;

  /// --- Flat chain op table (per-tuple, scalar-train and columnar paths) ---
  /// Build-time constants of one chain operator, denormalized so the
  /// per-tuple loop and the kernel lane loops read plain scalars instead of
  /// chasing CompiledQuery -> QuerySpec -> left_ops.
  struct KernelOp {
    /// OperatorSpec::cost(), already in SimTime.
    SimTime cost = 0.0;
    /// EffectiveActualSelectivity() of the operator.
    double selectivity = 1.0;
    /// Correlated-attribute predicate bound for the columnar kernels: the
    /// exact IEEE product selectivity * 100 the scalar Passes computes, or
    /// +infinity for a pass-everything operator (selectivity >= 1) so the
    /// kernel comparison stays branch-free in that case too. (Kernels never
    /// run under drift, so no sel_scale_ factor applies.)
    double threshold = 0.0;
    /// Correlated plans: min(threshold) over the ops of this op's fused run
    /// up to and including this one. A lane survives a correlated run's
    /// prefix [0..x] iff attr <= run_prefix_min of op x (the same IEEE
    /// comparisons the scalar chain performs, just collapsed), which is what
    /// lets the reach kernel count survivors per operator without tracking
    /// per-lane depth. Set for the ops of the query's chain unit's fused
    /// runs.
    double run_prefix_min = 0.0;
    /// Absolute chain position (the frozen-draw ordinal).
    int ordinal = 0;
  };
  /// Chain of one single-stream query: operator x is chain_ops_[begin + x].
  struct ChainPlan {
    size_t begin = 0;
    int n_ops = 0;
    /// Selectivity realized as an attribute threshold (vs a frozen draw).
    bool correlated = false;
  };
  /// Indexed by query id; multi-stream queries hold an empty chain.
  std::vector<ChainPlan> chains_;
  std::vector<KernelOp> chain_ops_;

  /// Correlated-attribute reach kernel: fills kernel_reach_[0..k] with the
  /// number of lanes charged for each operator of the run (reach[x] = lanes
  /// surviving ops [0..x-1]; reach[0] = n). Survival of a run prefix is a
  /// single comparison against that prefix's min threshold
  /// (KernelOp::run_prefix_min), so each entry is a branch-free vectorizable
  /// count over the attribute column — no per-lane depth — and consecutive
  /// ops whose prefix min did not change reuse the previous count outright.
  /// Lanes are the columns' first n rows, so the count needs no gather.
  void CountReachAttribute(size_t n, const KernelOp* ops, int k);
  /// Branch-free frozen-Bernoulli depth kernel: fills col_depth_[0..n) with
  /// each lane's survived depth over a run of `k` operators (consecutive
  /// passes from the run's start; alive &= pass, depth += alive — no
  /// per-lane branch). Draw outcomes are per (op, tuple), so unlike the
  /// correlated kernel a per-lane pass is irreducible.
  void DepthKernelBernoulli(size_t n, const KernelOp* ops, int k,
                            uint64_t query_key);

  /// Columnar path engaged: use_columnar_kernels && batching configured &&
  /// no tracer (the tracer wants per-invocation events in clock order) &&
  /// no drift (lanes carry their own factors). It runs the chain units
  /// whose fusion tiles the whole segment (built_.chain_fusion contiguous).
  bool columnar_ = false;
  /// Arena backing the column scratch; reset and re-carved on growth.
  Arena column_arena_;
  /// SoA columns of the current train, gathered from the drained queue
  /// entries: synthetic attribute, global arrival id (frozen-draw key and
  /// trace/QoS identity), arrival time. col_depth_ is the kernels' survived
  /// depth output; col_sel_ the survivors' rows, in order. All
  /// col_capacity_ elements long.
  double* col_attr_ = nullptr;
  stream::ArrivalId* col_id_ = nullptr;
  SimTime* col_arrival_time_ = nullptr;
  uint32_t* col_depth_ = nullptr;
  uint32_t* col_sel_ = nullptr;
  size_t col_capacity_ = 0;
  /// Clock-replay scratch: reach[x] = lanes whose depth reaches local op x;
  /// sized for the longest chain at construction.
  std::vector<int64_t> kernel_reach_;
  /// Join-probe candidate buffers, one per recursion depth of
  /// ProbeAndPropagate (a probe at stage s iterates its buffer while deeper
  /// stages fill theirs). Sized once in the constructor from the deepest
  /// join pipeline in the plan; reused across all probes so the hot path
  /// allocates nothing.
  std::vector<std::vector<SymmetricHashJoinState::Entry>> probe_scratch_;
  int probe_depth_ = 0;

  /// Publishes the engine's hot counters into the telemetry cell. Wait-free
  /// (SnapshotCell::Publish); called at masked scheduling points and once
  /// with done=true when the run drains.
  void PublishTelemetry(bool done);

  /// Observability state — all observation-only (never feeds the clock).
  obs::EventTracer* tracer_ = nullptr;
  /// Live-telemetry cell (null = disabled; the hot-loop check is one branch
  /// on this pointer, same as tracer_).
  obs::SnapshotCell* telemetry_ = nullptr;
  /// Publish every (mask+1) scheduling points; power-of-two minus one.
  uint64_t telemetry_mask_ = 0;
  /// Slowdown accumulators feeding the cell (only maintained when a cell is
  /// attached — emission sites branch on telemetry_).
  double telemetry_slowdown_sum_ = 0.0;
  int64_t telemetry_slowdown_count_ = 0;
  double telemetry_max_slowdown_ = 0.0;
  obs::Histogram queue_len_hist_{kQueueLengthHistogram};
  obs::Histogram exec_busy_hist_;
  obs::StageAttribution attribution_;
  /// Unit/query of the execution in progress (trace context for operator
  /// invocations and join probes); -1 between dispatches.
  int32_t cur_unit_ = -1;
  int32_t cur_query_ = -1;
  /// Clock when the execution in progress began, and the scheduling overhead
  /// charged at its scheduling point (the attribution decomposition).
  SimTime exec_start_ = 0.0;
  SimTime exec_point_overhead_ = 0.0;
};

}  // namespace aqsios::exec

#endif  // AQSIOS_EXEC_ENGINE_H_
