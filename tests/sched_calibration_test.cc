// Online cost/selectivity calibration (sched/calibration.h,
// docs/calibration.md): estimator convergence and decay, the min-weight and
// hysteresis guards, byte-identity of every report when calibration is off,
// determinism of calibrated drift runs, equivalence of the kinetic targeted
// re-keys with the scan oracle's live re-derivation, and the no-full-rebuild
// pin (KineticIndex::clears() stays 0 on the calibration path).

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "query/builder.h"
#include "query/workload.h"
#include "sched/basic_policies.h"
#include "sched/calibration.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/unit.h"
#include "scan_schedulers.h"
#include "stream/arrival_process.h"
#include "stream/drift.h"

namespace aqsios::sched {
namespace {

constexpr PolicyKind kAllPolicies[] = {
    PolicyKind::kFcfs,        PolicyKind::kRoundRobin,
    PolicyKind::kSrpt,        PolicyKind::kHr,
    PolicyKind::kHnr,         PolicyKind::kLsf,
    PolicyKind::kBsd,         PolicyKind::kBsdClustered,
    PolicyKind::kChain,       PolicyKind::kTwoLevelRr,
    PolicyKind::kLpNorm,      PolicyKind::kQosGraph,
};

/// Minimal scheduler stub recording what the calibrator hands it.
class RecordingScheduler : public Scheduler {
 public:
  void Attach(const UnitTable* units) override { units_ = units; }
  void OnEnqueue(int) override {}
  void OnDequeue(int) override {}
  bool PickNext(SimTime, SchedulingCost*, std::vector<int>*) override {
    return false;
  }
  const char* name() const override { return "recording"; }
  void ResyncQueues(SimTime) override {}
  void OnCalibratedStats(const std::vector<int>& changed, SimTime) override {
    ++calls;
    last_changed = changed;
  }

  int calls = 0;
  std::vector<int> last_changed;

 private:
  const UnitTable* units_ = nullptr;
};

Unit MakeUnit(int id, SimTime cost, double selectivity, SimTime ideal_time) {
  Unit unit;
  unit.id = id;
  unit.stats.expected_cost = cost;
  unit.stats.selectivity = selectivity;
  unit.stats.ideal_time = ideal_time;
  RederiveUnitStats(&unit.stats);
  return unit;
}

TEST(CostCalibratorTest, ConvergesToObservedRatiosAndRescalesIdealTime) {
  UnitTable units;
  units.push_back(MakeUnit(0, /*cost=*/0.001, /*selectivity=*/0.5,
                           /*ideal_time=*/0.002));
  units.push_back(MakeUnit(1, /*cost=*/0.001, /*selectivity=*/0.5,
                           /*ideal_time=*/0.002));
  // Give unit 0 pending work so its rewrite counts as a re-key.
  units[0].queue.push_back(QueueEntry{0, 0.0});
  RecordingScheduler scheduler;
  scheduler.Attach(&units);
  CalibrationConfig config;
  config.enabled = true;
  config.period = 1.0;
  CostCalibrator calibrator(config, &units, &scheduler);

  // Unit 0: only selectivities shifted. More tuples reach the later
  // operators, so the per-tuple cost doubles, but every invocation costs
  // what the plan says (busy == plan busy): T = Σ c_i must not move.
  calibrator.OnDispatch(0, /*tuples=*/100, /*busy=*/100 * 0.002,
                        /*plan_busy=*/100 * 0.002, /*emitted=*/80);
  // Unit 1: every operator costs 5x the plan, selectivity unchanged.
  calibrator.OnDispatch(1, 100, 100 * 0.005, 100 * 0.001, 50);
  EXPECT_FALSE(calibrator.MaybeCalibrate(0.5));  // before the epoch
  EXPECT_TRUE(calibrator.MaybeCalibrate(1.0));

  EXPECT_DOUBLE_EQ(calibrator.EstimatedCost(0), 0.002);
  EXPECT_DOUBLE_EQ(calibrator.EstimatedSelectivity(0), 0.8);
  EXPECT_DOUBLE_EQ(units[0].stats.expected_cost, 0.002);
  EXPECT_DOUBLE_EQ(units[0].stats.selectivity, 0.8);
  EXPECT_EQ(units[0].stats.ideal_time, 0.002);  // bit-equal
  // Derived priorities re-derived from the calibrated inputs.
  EXPECT_DOUBLE_EQ(units[0].stats.output_rate, 0.8 / 0.002);
  EXPECT_DOUBLE_EQ(units[0].stats.normalized_rate, 0.8 / 0.002 / 0.002);

  EXPECT_DOUBLE_EQ(calibrator.EstimatedCost(1), 0.005);
  EXPECT_DOUBLE_EQ(units[1].stats.ideal_time, 5 * 0.002);

  EXPECT_EQ(scheduler.calls, 1);
  EXPECT_EQ(scheduler.last_changed, (std::vector<int>{0, 1}));
  EXPECT_EQ(calibrator.updates(), 2);
  EXPECT_EQ(calibrator.rekeys(), 1);
  EXPECT_EQ(calibrator.last_updated_units(), 2);
  // Mean of |2 - 1| and |5 - 1|.
  EXPECT_DOUBLE_EQ(calibrator.MeanAbsCostDrift(), 2.5);

  // Steady state: the same regime observed again moves nothing (hysteresis).
  calibrator.OnDispatch(0, 100, 100 * 0.002, 100 * 0.002, 80);
  calibrator.OnDispatch(1, 100, 100 * 0.005, 100 * 0.001, 50);
  EXPECT_TRUE(calibrator.MaybeCalibrate(2.0));
  EXPECT_EQ(calibrator.updates(), 2);
  EXPECT_EQ(calibrator.last_updated_units(), 0);
  EXPECT_EQ(scheduler.calls, 1);
  EXPECT_EQ(calibrator.epochs(), 2);
}

TEST(CostCalibratorTest, ZeroStaticCostLeavesIdealTimeAndDriftFinite) {
  // Unit 0 has static cost 0 (a free segment): its plan cost is 0, so there
  // is no ratio to rescale its T by, and no relative drift to average in.
  // (Set by hand: no static rate is derivable from a zero cost.)
  UnitTable units(1);
  units[0].stats.expected_cost = 0.0;
  units[0].stats.selectivity = 0.5;
  units[0].stats.ideal_time = 0.002;
  units.push_back(MakeUnit(1, /*cost=*/0.001, /*selectivity=*/0.5,
                           /*ideal_time=*/0.002));
  RecordingScheduler scheduler;
  scheduler.Attach(&units);
  CalibrationConfig config;
  config.enabled = true;
  config.period = 1.0;
  CostCalibrator calibrator(config, &units, &scheduler);

  calibrator.OnDispatch(0, 100, 100 * 0.002, /*plan_busy=*/0.0, 50);
  calibrator.OnDispatch(1, 100, 100 * 0.002, 100 * 0.001, 50);
  ASSERT_TRUE(calibrator.MaybeCalibrate(1.0));

  EXPECT_DOUBLE_EQ(units[0].stats.expected_cost, 0.002);
  EXPECT_DOUBLE_EQ(units[0].stats.ideal_time, 0.002);
  EXPECT_TRUE(std::isfinite(units[0].stats.phi));
  EXPECT_GT(units[0].stats.phi, 0.0);
  EXPECT_DOUBLE_EQ(units[1].stats.ideal_time, 0.004);
  // The mean covers unit 1 only: |0.002 / 0.001 - 1| = 1.
  EXPECT_DOUBLE_EQ(calibrator.MeanAbsCostDrift(), 1.0);
}

TEST(CostCalibratorTest, DecayForgetsTheOldRegime) {
  UnitTable units;
  units.push_back(MakeUnit(0, 0.001, 0.5, 0.002));
  RecordingScheduler scheduler;
  scheduler.Attach(&units);
  CalibrationConfig config;
  config.enabled = true;
  config.period = 1.0;
  config.decay = 0.5;
  CostCalibrator calibrator(config, &units, &scheduler);

  // One epoch of the old regime (cost 0.001), then several of the new
  // (cost 0.005): the exponentially-decayed estimate must approach the new
  // regime geometrically.
  calibrator.OnDispatch(0, 100, 100 * 0.001, 100 * 0.001, 50);
  ASSERT_TRUE(calibrator.MaybeCalibrate(1.0));
  double previous_gap = 0.005 - calibrator.EstimatedCost(0);
  for (int epoch = 2; epoch <= 6; ++epoch) {
    calibrator.OnDispatch(0, 100, 100 * 0.005, 100 * 0.001, 50);
    ASSERT_TRUE(calibrator.MaybeCalibrate(static_cast<SimTime>(epoch)));
    const double gap = 0.005 - calibrator.EstimatedCost(0);
    EXPECT_LT(gap, previous_gap) << "epoch " << epoch;
    previous_gap = gap;
  }
  EXPECT_NEAR(calibrator.EstimatedCost(0), 0.005, 2e-4);
}

TEST(CostCalibratorTest, MinWeightGuardTrustsNothingThin) {
  UnitTable units;
  units.push_back(MakeUnit(0, 0.001, 0.5, 0.002));
  RecordingScheduler scheduler;
  scheduler.Attach(&units);
  CalibrationConfig config;
  config.enabled = true;
  config.period = 1.0;
  config.min_weight = 8.0;
  CostCalibrator calibrator(config, &units, &scheduler);

  // 7 tuples of wildly different cost: below min_weight, ignored.
  calibrator.OnDispatch(0, 7, 7 * 0.010, 7 * 0.001, 7);
  EXPECT_TRUE(calibrator.MaybeCalibrate(1.0));
  EXPECT_EQ(calibrator.updates(), 0);
  EXPECT_EQ(scheduler.calls, 0);
  EXPECT_DOUBLE_EQ(calibrator.EstimatedCost(0), 0.001);
  EXPECT_DOUBLE_EQ(units[0].stats.expected_cost, 0.001);
}

// ---------------------------------------------------------------------------
// Engine integration.

query::Workload TestbedWorkload(int queries = 24, int64_t arrivals = 3000,
                                double utilization = 0.4) {
  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.utilization = utilization;
  config.seed = 42;
  return query::GenerateWorkload(config);
}

core::SimulationOptions DriftOptions(const query::Workload& workload) {
  const SimTime span = workload.arrivals.arrivals.back().time;
  core::SimulationOptions options;
  options.drift.enabled = true;
  options.drift.modulo = 2;
  options.drift.cost_factor = 4.0;
  options.drift.selectivity_factor = 0.7;
  options.drift.step_time = 0.3 * span;
  options.drift.ramp_seconds = 0.1 * span;
  options.calibration.enabled = true;
  options.calibration.period = span / 50.0;
  return options;
}

TEST(CalibrationOffTest, DisabledCalibrationIsByteIdenticalAcrossAllPolicies) {
  // The calibration and drift wiring must be invisible until enabled: for
  // every policy, a run with explicit (disabled) configs carrying exotic
  // knob values serializes byte-for-byte like a plain default run, and no
  // calibration keys appear anywhere in the JSON.
  const query::Workload workload = TestbedWorkload(20, 1500, 0.9);
  for (const PolicyKind kind : kAllPolicies) {
    const PolicyConfig policy = PolicyConfig::Of(kind);
    const core::RunResult plain =
        core::Simulate(workload, policy, core::SimulationOptions{});
    core::SimulationOptions options;
    options.calibration.enabled = false;
    options.calibration.period = 0.001;     // must be ignored while disabled
    options.calibration.rel_epsilon = 0.0;  // must be ignored while disabled
    options.drift.enabled = false;
    options.drift.cost_factor = 9.0;        // must be ignored while disabled
    options.drift.step_time = 0.0;          // must be ignored while disabled
    const core::RunResult configured =
        core::Simulate(workload, policy, options);
    const std::string plain_json = core::RunResultToJson(plain);
    EXPECT_EQ(plain_json, core::RunResultToJson(configured))
        << "policy " << PolicyKindName(kind);
    EXPECT_EQ(plain_json.find("calibration"), std::string::npos)
        << "policy " << PolicyKindName(kind);
    EXPECT_EQ(plain.counters.adaptation_ticks, 0);
    EXPECT_EQ(plain.counters.calibration_rekeys, 0);
  }
}

TEST(CalibrationDriftTest, CalibratedDriftRunsAreDeterministic) {
  const query::Workload workload = TestbedWorkload();
  const core::SimulationOptions options = DriftOptions(workload);
  for (const PolicyKind kind : {PolicyKind::kLsf, PolicyKind::kBsd}) {
    const PolicyConfig policy = PolicyConfig::Of(kind);
    const core::RunResult first = core::Simulate(workload, policy, options);
    const core::RunResult second = core::Simulate(workload, policy, options);
    EXPECT_EQ(core::RunResultToJson(first), core::RunResultToJson(second))
        << "policy " << PolicyKindName(kind);
    EXPECT_GT(first.counters.adaptation_ticks, 0)
        << "policy " << PolicyKindName(kind);
    EXPECT_GT(first.counters.calibration_rekeys, 0)
        << "policy " << PolicyKindName(kind);
  }
}

TEST(CalibrationDriftTest, ShardedCalibratedDriftRunsAreDeterministic) {
  // The sharded runner translates the drift membership from global query
  // ids to each shard's local dense ids; the merged result must still be
  // bit-reproducible run over run.
  const query::Workload workload = TestbedWorkload();
  core::SimulationOptions options = DriftOptions(workload);
  options.shards = 2;
  const PolicyConfig policy = PolicyConfig::Of(PolicyKind::kLsf);
  const core::RunResult first = core::Simulate(workload, policy, options);
  const core::RunResult second = core::Simulate(workload, policy, options);
  EXPECT_EQ(core::RunResultToJson(first), core::RunResultToJson(second));
  EXPECT_GT(first.counters.calibration_rekeys, 0);
}

TEST(CalibrationDriftTest, TargetedRekeysMatchFullRederivationOracle) {
  // The kinetic policies re-key only the changed units through the index's
  // path replay; the scan oracle (scan_schedulers.h) recomputes every
  // priority from the (calibrated) stats live at each pick. Byte-identical
  // reports prove the targeted O(log n) path equals the full re-derivation.
  const query::Workload workload = TestbedWorkload();
  const core::SimulationOptions options = DriftOptions(workload);
  for (const PolicyKind kind : {PolicyKind::kLsf, PolicyKind::kBsd}) {
    const PolicyConfig policy = PolicyConfig::Of(kind);
    oracle::ScanLsfScheduler scan_lsf;
    oracle::ScanBsdScheduler scan_bsd(policy.bsd_count_all_units);
    Scheduler* scan = kind == PolicyKind::kLsf
                          ? static_cast<Scheduler*>(&scan_lsf)
                          : &scan_bsd;
    const core::RunResult a = core::Simulate(workload, policy, options);
    const core::RunResult b =
        oracle::SimulateWithScheduler(workload, policy, options, scan);
    EXPECT_EQ(core::RunResultToJson(a), core::RunResultToJson(b))
        << "policy " << PolicyKindName(kind);
    EXPECT_GT(a.counters.calibration_rekeys, 0)
        << "policy " << PolicyKindName(kind);
  }
}

TEST(CalibrationDriftTest, CalibrationNeverClearsTheKineticIndex) {
  // The no-full-rebuild pin: a calibrated drift run re-keys thousands of
  // priority lines, yet the kinetic index is never cleared — every rewrite
  // goes through a per-unit path replay.
  const query::Workload workload = TestbedWorkload();
  const core::SimulationOptions sim_options = DriftOptions(workload);
  {
    exec::EngineConfig config;
    config.drift = sim_options.drift;
    config.calibration = sim_options.calibration;
    LsfScheduler lsf;
    metrics::QosCollector collector((metrics::QosCollector::Options()));
    exec::Engine engine(&workload.plan, &workload.arrivals, config, &lsf,
                        &collector);
    const exec::RunCounters counters = engine.Run();
    EXPECT_GT(counters.calibration_rekeys, 0);
    EXPECT_EQ(lsf.index().clears(), 0);
  }
  {
    exec::EngineConfig config;
    config.drift = sim_options.drift;
    config.calibration = sim_options.calibration;
    BsdScheduler bsd(/*count_all_units=*/true);
    metrics::QosCollector collector((metrics::QosCollector::Options()));
    exec::Engine engine(&workload.plan, &workload.arrivals, config, &bsd,
                        &collector);
    const exec::RunCounters counters = engine.Run();
    EXPECT_GT(counters.calibration_rekeys, 0);
    EXPECT_EQ(bsd.index().clears(), 0);
  }
}

TEST(CalibrationJoinTest, JoinSelectivityAboveOneStaysFinite) {
  // A window join can emit more composites than it takes in, so its units'
  // selectivity (emissions per input tuple) exceeds 1: a ratio, not a
  // probability. Here every pair in the window matches: 100 arrivals/s per
  // stream, 2 join keys and a 0.5 s window give each input ~25 partners.
  // The calibrated estimate must keep that ratio above 1 and every rate
  // priority finite.
  std::vector<query::CompiledQuery> queries;
  for (int i = 0; i < 2; ++i) {
    query::QuerySpec spec = query::QueryBuilder(0)
                                .Select(0.05, 1.0)
                                .WindowJoinWith(1, 0.05, 1.0, 0.5, 0.01)
                                .Select(0.05, 1.0)
                                .Common()
                                .Project(0.01)
                                .Build();
    spec.id = i;
    queries.emplace_back(std::move(spec),
                         query::SelectivityMode::kIndependent);
  }
  const query::GlobalPlan plan(std::move(queries), {}, /*num_streams=*/2);
  stream::PoissonArrivalProcess left(100.0, 1);
  stream::PoissonArrivalProcess right(100.0, 2);
  const stream::ArrivalTable arrivals = stream::MergeArrivalTables(
      {stream::GenerateArrivals(left, 0, 300, 3, /*num_join_keys=*/2),
       stream::GenerateArrivals(right, 1, 300, 4, /*num_join_keys=*/2)});

  exec::EngineConfig engine_config;
  engine_config.calibration.enabled = true;
  engine_config.calibration.period = arrivals.Horizon() / 10.0;
  const std::unique_ptr<Scheduler> hnr =
      CreateScheduler(PolicyConfig::Of(PolicyKind::kHnr));
  metrics::QosCollector collector((metrics::QosCollector::Options()));
  exec::Engine engine(&plan, &arrivals, engine_config, hnr.get(),
                      &collector);
  const exec::RunCounters counters = engine.Run();
  ASSERT_GT(counters.adaptation_ticks, 0);
  ASSERT_GT(counters.tuples_emitted, 2 * arrivals.size());
  EXPECT_GT(counters.calibration_updates, 0);

  int join_units = 0;
  for (const Unit& unit : engine.units()) {
    ASSERT_TRUE(unit.kind == UnitKind::kJoinSideLeft ||
                unit.kind == UnitKind::kJoinSideRight);
    ++join_units;
    const UnitStats& stats = unit.stats;
    EXPECT_GT(stats.selectivity, 1.0) << "unit " << unit.id;
    EXPECT_TRUE(std::isfinite(stats.output_rate)) << "unit " << unit.id;
    EXPECT_TRUE(std::isfinite(stats.normalized_rate)) << "unit " << unit.id;
    EXPECT_TRUE(std::isfinite(stats.phi)) << "unit " << unit.id;
    EXPECT_GT(stats.phi, 0.0) << "unit " << unit.id;
  }
  EXPECT_EQ(join_units, 4);
}

}  // namespace
}  // namespace aqsios::sched
