// Scheduler state export/import round-trip: after a warm-up of enqueues and
// picks, a second scheduler attached to a copy of the unit table and fed
// ExportState() must reproduce the exporter's remaining pick sequence
// exactly. This is the contract elastic group migration relies on
// (core/rebalance.h): queues move wholesale, the scheduler re-derives or
// imports its bookkeeping, and the merged run stays deterministic.

#include "sched/policy.h"

#include <gtest/gtest.h>

#include <vector>

namespace aqsios::sched {
namespace {

/// Six query-level units with pairwise-distinct priority ingredients so no
/// policy faces a priority tie (ties would make pick order legitimately
/// implementation-defined and the comparison meaningless).
UnitTable MakeUnits() {
  UnitTable units;
  for (int i = 0; i < 6; ++i) {
    Unit unit;
    unit.id = i;
    unit.kind = UnitKind::kQueryChain;
    unit.query = i;
    unit.input_stream = 0;
    unit.stats.selectivity = 0.25 + 0.09 * i;
    unit.stats.expected_cost = 0.004 + 0.0017 * i;
    unit.stats.ideal_time = 0.012 + 0.005 * (6 - i);
    RederiveUnitStats(&unit.stats);
    unit.stats.chain_slope = 1.0 + 0.3 * ((i * 5) % 7);
    units.push_back(unit);
  }
  return units;
}

/// Interleaved arrival script touching every unit several times, with
/// strictly increasing arrival ids and times (so FIFO order, head waits, and
/// kinetic keys are all unambiguous).
void FeedScript(UnitTable& units, Scheduler& scheduler) {
  static const int kOrder[] = {3, 0, 5, 1, 4, 2, 0, 3, 1, 5,
                               2, 4, 3, 1, 0, 2, 5, 4, 1, 3,
                               2, 0, 4, 5, 0, 1, 2, 3, 4, 5};
  stream::ArrivalId arrival = 0;
  SimTime t = 0.0;
  for (int unit : kOrder) {
    units[static_cast<size_t>(unit)].queue.push_back(QueueEntry{arrival, t});
    scheduler.OnEnqueue(unit);
    ++arrival;
    t += 0.003;
  }
}

/// Runs `rounds` scheduling points with the engine's dequeue protocol (pop
/// the head of each returned unit, then notify). Returns the advanced clock.
SimTime WarmUp(UnitTable& units, Scheduler& scheduler, int rounds,
               SimTime now) {
  for (int i = 0; i < rounds; ++i) {
    SchedulingCost cost;
    std::vector<int> out;
    if (!scheduler.PickNext(now, &cost, &out)) break;
    for (int unit : out) {
      units[static_cast<size_t>(unit)].queue.pop_front();
      scheduler.OnDequeue(unit);
    }
    now += 0.0021;
  }
  return now;
}

/// Drains the scheduler to empty, recording the executed unit sequence.
std::vector<int> Drain(UnitTable& units, Scheduler& scheduler, SimTime now) {
  std::vector<int> sequence;
  while (true) {
    SchedulingCost cost;
    std::vector<int> out;
    if (!scheduler.PickNext(now, &cost, &out)) break;
    for (int unit : out) {
      sequence.push_back(unit);
      units[static_cast<size_t>(unit)].queue.pop_front();
      scheduler.OnDequeue(unit);
    }
    now += 0.0017;
  }
  return sequence;
}

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kFcfs,       PolicyKind::kRoundRobin,   PolicyKind::kSrpt,
    PolicyKind::kHr,         PolicyKind::kHnr,          PolicyKind::kLsf,
    PolicyKind::kBsd,        PolicyKind::kBsdClustered, PolicyKind::kChain,
    PolicyKind::kTwoLevelRr, PolicyKind::kLpNorm,       PolicyKind::kQosGraph,
};

TEST(SchedulerStateTest, ExportImportRoundTripPreservesPicks) {
  for (const PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(PolicyKindName(kind));
    const PolicyConfig config = PolicyConfig::Of(kind);
    UnitTable original = MakeUnits();
    std::unique_ptr<Scheduler> exporter = CreateScheduler(config);
    exporter->Attach(&original);
    FeedScript(original, *exporter);
    SimTime now = 30 * 0.003 + 0.01;
    now = WarmUp(original, *exporter, 7, now);

    // The migration target: identical queue contents, fresh scheduler,
    // imported bookkeeping.
    UnitTable copy = original;
    std::unique_ptr<Scheduler> importer = CreateScheduler(config);
    importer->Attach(&copy);
    importer->ImportState(exporter->ExportState(), now);

    const std::vector<int> expected = Drain(original, *exporter, now);
    const std::vector<int> actual = Drain(copy, *importer, now);
    EXPECT_FALSE(expected.empty());
    EXPECT_EQ(expected, actual);
    // Both drained to empty.
    for (const Unit& unit : copy) EXPECT_TRUE(unit.queue.empty());
  }
}

TEST(SchedulerStateTest, ResyncAloneReproducesPicksForStatDerivedPolicies) {
  // Policies whose bookkeeping is fully queue-derived must survive a
  // canonical ResyncQueues with no imported payload at all — this is the
  // path work stealing takes (queues mutate, ResyncQueues, no export).
  for (PolicyKind kind :
       {PolicyKind::kSrpt, PolicyKind::kHr, PolicyKind::kHnr,
        PolicyKind::kLsf, PolicyKind::kBsd, PolicyKind::kBsdClustered,
        PolicyKind::kChain, PolicyKind::kLpNorm, PolicyKind::kQosGraph}) {
    SCOPED_TRACE(PolicyKindName(kind));
    const PolicyConfig config = PolicyConfig::Of(kind);
    UnitTable original = MakeUnits();
    std::unique_ptr<Scheduler> reference = CreateScheduler(config);
    reference->Attach(&original);
    FeedScript(original, *reference);
    SimTime now = 30 * 0.003 + 0.01;
    now = WarmUp(original, *reference, 7, now);

    UnitTable copy = original;
    std::unique_ptr<Scheduler> resynced = CreateScheduler(config);
    resynced->Attach(&copy);
    resynced->ResyncQueues(now);

    EXPECT_EQ(Drain(original, *reference, now), Drain(copy, *resynced, now));
  }
}

TEST(SchedulerStateTest, ImportOnEmptyQueuesIsANoOp) {
  for (const PolicyKind kind : kAllPolicies) {
    SCOPED_TRACE(PolicyKindName(kind));
    const PolicyConfig config = PolicyConfig::Of(kind);
    UnitTable units = MakeUnits();
    std::unique_ptr<Scheduler> scheduler = CreateScheduler(config);
    scheduler->Attach(&units);
    scheduler->ImportState(SchedulerState{}, /*now=*/1.0);
    SchedulingCost cost;
    std::vector<int> out;
    EXPECT_FALSE(scheduler->PickNext(1.0, &cost, &out));
  }
}

}  // namespace
}  // namespace aqsios::sched
