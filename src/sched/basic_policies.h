// The non-clustered scheduling policies: FCFS, RR (Aurora-style), the static
// priority family (SRPT / HR / HNR), LSF, and exact (unclustered) BSD.
//
// Priorities (paper Eq. 3–6):
//   SRPT:  1 / T           — shortest ideal processing time first
//   HR:    S / C̄           — highest global output rate first
//   HNR:   S / (C̄·T)       — highest normalized rate first
//   LSF:   W / T           — longest current stretch first
//   BSD:   (S / (C̄·T²))·W  — balance slowdown
//
// LSF and BSD have time-varying priorities; they answer each pick from a
// KineticIndex (O(log n) amortized wall-clock). The index returns exactly the
// unit the paper's naive O(n) scan would return, and the simulated
// SchedulingCost still charges that scan (§6.2), so the virtual clock sees the
// naive implementation whatever the wall clock pays. The scan itself lives in
// tests/scan_schedulers.h as the equivalence oracle (docs/performance.md).

#ifndef AQSIOS_SCHED_BASIC_POLICIES_H_
#define AQSIOS_SCHED_BASIC_POLICIES_H_

#include <deque>
#include <vector>

#include "sched/kinetic_index.h"
#include "sched/ready_set.h"
#include "sched/scheduler.h"

namespace aqsios::sched {

/// First-come-first-served over system arrival order. Entries are served in
/// global enqueue order, which coincides with arrival order for leaf queues.
class FcfsScheduler : public Scheduler {
 public:
  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  bool WantsEveryEnqueue() const override { return true; }
  void OnDequeue(int unit) override;
  /// A train consumed `count - 1` entries beyond the one PickNext popped
  /// from the fifo; their fifo occurrences must be retired too.
  void OnBatchDequeue(int unit, int count) override;
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  const char* name() const override { return "FCFS"; }
  /// Rebuilds the fifo canonically: all queued entries ordered by (arrival
  /// index, unit id). Coincides with true enqueue order for leaf queues.
  void ResyncQueues(SimTime now) override;
  /// The fifo order itself is state a resync can't always reproduce
  /// (operator-level internal queues enqueue in execution order, not arrival
  /// order), so export carries it verbatim.
  SchedulerState ExportState() const override;
  void ImportState(const SchedulerState& state, SimTime now) override;

 private:
  const UnitTable* units_ = nullptr;
  std::deque<int> fifo_;
};

/// Aurora's two-level scheme reduced to the unit level: Round-Robin across
/// units with pending tuples. (Within a unit, execution is the pipelined
/// rate-based segment run, which at query-level granularity is the whole
/// query — matching the RR/RB combination the paper compares against.)
///
/// The pick is an ordered-ready-set lower_bound with wraparound rather than
/// a modular cursor scan; the visit order — and therefore the pick sequence
/// and the reported candidates count — is identical to the scan's.
class RoundRobinScheduler : public Scheduler {
 public:
  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// Readiness depends only on the final queue state: reconcile once.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  const char* name() const override { return "RR"; }
  void ResyncQueues(SimTime now) override;
  /// The round-robin cursor survives export/import; readiness is resynced.
  SchedulerState ExportState() const override;
  void ImportState(const SchedulerState& state, SimTime now) override;

 private:
  const UnitTable* units_ = nullptr;
  OrderedReadySet ready_;
  int cursor_ = 0;
};

/// Which static priority a StaticPriorityScheduler orders by. kChain is the
/// memory-minimizing baseline (progress-chart envelope slope, see
/// sched/chain_policy.h).
enum class StaticPolicy { kSrpt, kHr, kHnr, kChain };

/// Serves the ready unit with the highest static priority. Ranks are unique
/// per unit, so the ready set is a bitmap over ranks: O(1)-ish per event,
/// allocation-free, same pick order as the rank-ordered std::set it
/// replaced.
class StaticPriorityScheduler : public Scheduler {
 public:
  explicit StaticPriorityScheduler(StaticPolicy policy) : policy_(policy) {}

  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// Readiness depends only on the final queue state: reconcile once.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  /// Re-ranks all units by their refreshed stats, preserving queue state.
  void OnStatsUpdated() override;
  void ResyncQueues(SimTime now) override;
  const char* name() const override;
  /// Static priorities are their own shed ranking: shedding drops the units
  /// this policy would serve last.
  double ShedPriority(const Unit& unit) const override {
    return PriorityOf(policy_, unit);
  }

  /// The priority value this policy assigns to `unit` (exposed for tests).
  static double PriorityOf(StaticPolicy policy, const Unit& unit);

 private:
  void RebuildRanks();

  StaticPolicy policy_;
  const UnitTable* units_ = nullptr;
  /// rank[unit] = position in descending priority order (ties by id).
  std::vector<int> rank_;
  /// order[rank] = unit — the inverse permutation of rank_.
  std::vector<int> order_;
  /// Ready units as a bitmap over ranks; First() is the highest-priority
  /// ready unit.
  OrderedReadySet ready_;
};

/// Longest Stretch First (Eq. 5): max W/T among ready units. The ordering is
/// time-varying; picks are answered by a kinetic index over the units'
/// W/T priority lines.
class LsfScheduler : public Scheduler {
 public:
  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// One erase-or-re-key on the post-train head instead of `count`
  /// intermediate kinetic re-keys — the once-per-batch priority update.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  /// Re-keys every pending unit's line from the refreshed stats.
  void OnStatsUpdated() override;
  /// Targeted calibration path: re-keys only the changed units' priority
  /// lines (new 1/T slopes, unchanged anchors) through the kinetic index's
  /// Insert-on-existing-id, which replays one leaf-to-root path — O(log n)
  /// per changed unit, never a Clear.
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime now) override;
  /// The index holds exactly the pending units' lines, so a resync is the
  /// same full re-key as a stats refresh.
  void ResyncQueues(SimTime /*now*/) override { OnStatsUpdated(); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  const char* name() const override { return "LSF"; }
  /// W/T grows at 1/T per second of wait: shed the slowest-stretching
  /// sources first.
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.ideal_time > 0.0 ? 1.0 / unit.stats.ideal_time : 0.0;
  }

  /// Test introspection: the kinetic index (clears/recompute counters).
  const KineticIndex& index() const { return index_; }

 private:
  const UnitTable* units_ = nullptr;
  KineticIndex index_{KineticIndex::EvalMode::kRatio};
};

/// Exact Balance Slowdown (Eq. 6): max Φ·W. `count_all_units` selects the
/// naive-implementation accounting the paper describes in §6.2 (the
/// scheduler touches all q units at every scheduling point); otherwise only
/// ready units are counted. The *hypothetical* BSD of §9.2 is this scheduler
/// with engine-side overhead charging disabled. Like LSF, the pick itself is
/// kinetic; the simulated charges model the scan.
class BsdScheduler : public Scheduler {
 public:
  explicit BsdScheduler(bool count_all_units = true)
      : count_all_units_(count_all_units) {}

  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// One erase-or-re-key on the post-train head instead of `count`
  /// intermediate kinetic re-keys — the once-per-batch priority update.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  /// Re-keys every pending unit's Φ line from the refreshed stats.
  void OnStatsUpdated() override;
  /// Targeted calibration path: re-keys only the changed units' Φ lines —
  /// see LsfScheduler::OnCalibratedStats.
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime now) override;
  /// Same full re-key as a stats refresh — see LsfScheduler::ResyncQueues.
  void ResyncQueues(SimTime /*now*/) override { OnStatsUpdated(); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  const char* name() const override { return "BSD"; }
  /// Φ·W grows at Φ per second of wait: shed the lowest-Φ sources first.
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.phi;
  }

  /// Test introspection: the kinetic index (clears/recompute counters).
  const KineticIndex& index() const { return index_; }

 private:
  bool count_all_units_;
  const UnitTable* units_ = nullptr;
  KineticIndex index_{KineticIndex::EvalMode::kScaled};
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_BASIC_POLICIES_H_
