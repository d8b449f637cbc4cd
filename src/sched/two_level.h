// Aurora's two-level scheduling scheme (§10, [9]): Round-Robin across
// queries, rate-based ordering of operators *within* the selected query.
//
// At query-level granularity this degenerates to plain Round-Robin (a
// selected query's whole chain runs pipelined anyway); the interesting case
// is operator-level scheduling, where each query may have several operators
// with pending tuples and the inner level picks the one with the highest
// local output rate (RB, [23]).

#ifndef AQSIOS_SCHED_TWO_LEVEL_H_
#define AQSIOS_SCHED_TWO_LEVEL_H_

#include <vector>

#include "sched/scheduler.h"

namespace aqsios::sched {

class TwoLevelRrScheduler : public Scheduler {
 public:
  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  bool WantsEveryEnqueue() const override { return true; }
  void OnDequeue(int unit) override;
  /// One counter update for the whole train.
  void OnBatchDequeue(int unit, int count) override;
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  /// Re-sorts the inner rate-based orders from refreshed stats.
  void OnStatsUpdated() override;
  /// Recounts per-query pending tuples from the member queues.
  void ResyncQueues(SimTime now) override;
  /// The outer round-robin cursor survives export/import.
  SchedulerState ExportState() const override;
  void ImportState(const SchedulerState& state, SimTime now) override;
  const char* name() const override { return "RR+RB"; }

 private:
  const UnitTable* units_ = nullptr;
  /// Unit ids of each query, in descending segment output rate (the inner
  /// rate-based order).
  std::vector<std::vector<int>> units_of_query_;
  /// Pending-tuple count per query (outer-level readiness).
  std::vector<int64_t> pending_of_query_;
  int cursor_ = 0;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_TWO_LEVEL_H_
