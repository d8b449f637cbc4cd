// Scheduler interface.
//
// The execution engine owns the unit table (including input queues) and
// notifies the scheduler as units become ready and as entries are
// dequeued. At each scheduling point it asks the scheduler which unit(s) to
// execute next.

#ifndef AQSIOS_SCHED_SCHEDULER_H_
#define AQSIOS_SCHED_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "sched/unit.h"

namespace aqsios::sched {

/// Opaque serialized scheduler bookkeeping (Scheduler::ExportState /
/// ImportState). Carries only the state a canonical queue resync cannot
/// re-derive from the unit table — FCFS's actual enqueue interleaving,
/// round-robin cursors. Policies define their own layout; an empty state is
/// valid for policies whose bookkeeping is fully queue-derived.
struct SchedulerState {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Binds the scheduler to the engine's unit table. Called once before the
  /// run; the table's units (ids, stats) are final, only queues mutate.
  virtual void Attach(const UnitTable* units) = 0;

  /// Called after units[unit].queue gained an entry. Internal units
  /// (remainders, operator-level successors) report every push. A leaf unit
  /// reports only when it becomes ready — its queue was empty before the
  /// delivery — because its pending tuples are a range over the stream's
  /// arrivals that grows without per-leaf work (sched::UnitQueue), and a
  /// policy that reads queue heads learns nothing from later entries. A
  /// policy that orders individual entries opts into one call per
  /// delivered (arrival, leaf) pair with WantsEveryEnqueue.
  virtual void OnEnqueue(int unit) = 0;

  /// Whether OnEnqueue must see every entry delivered to a leaf, in
  /// delivery order (FCFS's FIFO, clustered BSD's per-cluster queues,
  /// two-level RR's pending counts). Default: readiness changes only.
  virtual bool WantsEveryEnqueue() const { return false; }

  /// Called after the engine popped the head entry of units[unit].queue.
  virtual void OnDequeue(int unit) = 0;

  /// Batched (train) execution: called once after the engine popped `count`
  /// head entries of units[unit].queue in a single dispatch — the queue
  /// already reflects the post-train state. The default forwards to
  /// OnDequeue once per popped entry, which is correct for any policy whose
  /// OnDequeue is idempotent on the current queue state or counts entries.
  /// Policies that key bookkeeping off the head entry (kinetic re-keys,
  /// per-entry pick orders) override this to reconcile in one pass, so the
  /// priority maintenance cost is paid once per batch instead of once per
  /// tuple.
  virtual void OnBatchDequeue(int unit, int count) {
    for (int i = 0; i < count; ++i) OnDequeue(unit);
  }

  /// Called after UnitStats were refreshed in place. Policies that
  /// precompute orderings from the stats must rebuild them here (queues are
  /// untouched); policies that read stats at decision time need not
  /// override.
  virtual void OnStatsUpdated() {}

  /// Called after the online cost calibrator (sched/calibration.h) refreshed
  /// UnitStats for exactly the units in `changed` (sorted ascending; queues
  /// are untouched). Unlike OnStatsUpdated, the affected set is known, so
  /// policies with incremental structures re-key only those units — the
  /// kinetic policies re-insert each changed unit's priority line
  /// (one O(log n) path replay each) instead of clearing the index.
  /// The default falls back to the full OnStatsUpdated rebuild, which is
  /// correct for every policy.
  virtual void OnCalibratedStats(const std::vector<int>& changed,
                                 SimTime now) {
    (void)changed;
    (void)now;
    OnStatsUpdated();
  }

  /// Chooses the next unit(s) to execute. Returns false when no unit has
  /// pending tuples. On success appends one or more unit ids to `out`; the
  /// engine pops exactly one head entry from each returned unit, in order,
  /// and executes the corresponding segments before the next scheduling
  /// point (more than one unit is returned only by clustered processing,
  /// §6.2.3, where all returned units consume the same head tuple).
  ///
  /// Implementations accumulate the number of priority computations and
  /// comparisons this decision needed into `cost` (used by the
  /// scheduling-overhead experiments, Figures 13–14); policies whose
  /// decisions are O(1)/amortized-trivial report zero.
  ///
  /// `cost` doubles as the observability decision hook: implementations also
  /// fill `cost->candidates` (ready units examined by this decision) and
  /// `cost->chosen_priority` (the chosen unit's priority value, 0 when the
  /// policy has no numeric priority). The engine forwards both to the event
  /// tracer and the per-policy decision counters; neither affects the
  /// simulated clock.
  virtual bool PickNext(SimTime now, SchedulingCost* cost,
                        std::vector<int>* out) = 0;

  /// Human-readable policy name for reports.
  virtual const char* name() const = 0;

  /// The policy's marginal-slowdown line slope for `unit`: the rate at which
  /// the unit's priority grows per second of head wait for wait-varying
  /// policies (LSF's W/T grows at 1/T, BSD's Φ·W at Φ), or the static
  /// priority itself for wait-independent policies (SRPT/HR/HNR/Chain). The
  /// QoS-aware load shedder (exec::ShedConfig) ranks leaf units by this
  /// value once, before the run, and sheds the lowest-slope sources first —
  /// the tuples whose loss costs the policy's own objective the least — so
  /// shedding decisions stay consistent with the scheduling decisions.
  /// Default: the HNR slope S/(C̄·T), the marginal slowdown reduction per
  /// unit of work, also used by policies with no numeric priority of their
  /// own (FCFS, RR, two-level RR, QoS-graph).
  virtual double ShedPriority(const Unit& unit) const {
    return unit.stats.normalized_rate;
  }

  /// Re-derives every queue-dependent internal structure (ready sets, FIFO
  /// shadows, kinetic-index keys, pending counts) from the attached unit
  /// table's *current* queue contents, canonically and deterministically.
  /// Required after the engine bulk-mutates queues outside the
  /// OnEnqueue/OnDequeue notification protocol — elastic group migration and
  /// cross-shard work stealing (core/rebalance.h) move whole queues at once.
  /// Stats-derived state (ranks, static priorities) is untouched; `now` is
  /// the engine clock at the resync point for policies that need it.
  virtual void ResyncQueues(SimTime now) = 0;

  /// Serializes the bookkeeping a canonical ResyncQueues cannot re-derive
  /// (see SchedulerState). Default: nothing beyond the queues themselves.
  virtual SchedulerState ExportState() const { return {}; }

  /// Restores a state captured by ExportState on a scheduler attached to a
  /// unit table with identical queue contents, such that the subsequent pick
  /// sequence matches the exporter's. Default: ignore the payload and resync
  /// canonically.
  virtual void ImportState(const SchedulerState& state, SimTime now) {
    (void)state;
    ResyncQueues(now);
  }
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_SCHEDULER_H_
