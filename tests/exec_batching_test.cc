// Tuple-train batching: equivalence and amortization guarantees.
//
// Batching is only allowed to change *when* decisions happen, never *what*
// a tuple experiences beyond that:
//  * with batching configured but trains capped at length 1 (a vanishingly
//    small batch_quantum), every policy must reproduce the default run's
//    results exactly — same emissions, same response moments, same clock;
//  * the default batch_size=1 must serialize byte-identically to an
//    explicit batch_size=1 (the committed BENCH_sweep.json stays pinned);
//  * on a single-query one-operator workload with zero overhead cost,
//    batching must leave every individual tuple's response time unchanged
//    (work-conserving single server, FIFO order — the golden trace);
//  * schedule-independent single-stream totals (emitted, filtered, busy
//    time) must be invariant under any batch size;
//  * under §9.2 overhead charging, batching must actually amortize: fewer
//    scheduling points, less charged overhead time;
//  * statistics drift composes with trains: each tuple keeps the factors of
//    its own (query, arrival time), so trains of one match per-tuple runs
//    exactly and longer trains keep every tuple's emit/drop outcome.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "obs/tracer.h"
#include "query/workload.h"

namespace aqsios::core {
namespace {

const sched::PolicyKind kAllPolicies[] = {
    sched::PolicyKind::kFcfs,        sched::PolicyKind::kRoundRobin,
    sched::PolicyKind::kSrpt,        sched::PolicyKind::kHr,
    sched::PolicyKind::kHnr,         sched::PolicyKind::kLsf,
    sched::PolicyKind::kBsd,         sched::PolicyKind::kBsdClustered,
    sched::PolicyKind::kChain,       sched::PolicyKind::kTwoLevelRr,
    sched::PolicyKind::kLpNorm,      sched::PolicyKind::kQosGraph,
};

query::Workload TestWorkload(uint64_t seed, bool multi_stream = false) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 3000;
  config.utilization = 0.9;
  config.seed = seed;
  config.multi_stream = multi_stream;
  return query::GenerateWorkload(config);
}

void ExpectSameRun(const RunResult& a, const RunResult& b,
                   const std::string& what) {
  EXPECT_EQ(a.qos.tuples_emitted, b.qos.tuples_emitted) << what;
  EXPECT_EQ(a.qos.avg_response, b.qos.avg_response) << what;
  EXPECT_EQ(a.qos.avg_slowdown, b.qos.avg_slowdown) << what;
  EXPECT_EQ(a.qos.max_slowdown, b.qos.max_slowdown) << what;
  EXPECT_EQ(a.qos.l2_slowdown, b.qos.l2_slowdown) << what;
  EXPECT_EQ(a.counters.busy_time, b.counters.busy_time) << what;
  EXPECT_EQ(a.counters.end_time, b.counters.end_time) << what;
  EXPECT_EQ(a.counters.overhead_time, b.counters.overhead_time) << what;
  EXPECT_EQ(a.counters.scheduling_points, b.counters.scheduling_points)
      << what;
  EXPECT_EQ(a.counters.unit_executions, b.counters.unit_executions) << what;
  EXPECT_EQ(a.counters.tuples_filtered, b.counters.tuples_filtered) << what;
  EXPECT_EQ(a.counters.operator_invocations, b.counters.operator_invocations)
      << what;
}

class BatchingEquivalenceTest : public testing::TestWithParam<uint64_t> {};

// A vanishingly small batch_quantum caps every train at one tuple while
// still routing dispatch through the batched code path — the per-tuple and
// train-of-one engines must be indistinguishable for every policy.
TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesPerTupleForEveryPolicy) {
  const query::Workload workload = TestWorkload(GetParam());
  for (const sched::PolicyKind kind : kAllPolicies) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult per_tuple = Simulate(workload, policy);
    SimulationOptions forced;
    forced.batch_quantum = 1e-300;
    const RunResult train = Simulate(workload, policy, forced);
    EXPECT_GT(train.counters.train_dispatches, 0)
        << sched::PolicyKindName(kind) << ": batched path not engaged";
    EXPECT_EQ(train.counters.max_train_tuples, 1)
        << sched::PolicyKindName(kind);
    ExpectSameRun(per_tuple, train, sched::PolicyKindName(kind));
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesPerTupleWithOverhead) {
  const query::Workload workload = TestWorkload(GetParam());
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kBsd,
        sched::PolicyKind::kBsdClustered}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    SimulationOptions charged;
    charged.charge_scheduling_overhead = true;
    const RunResult per_tuple = Simulate(workload, policy, charged);
    SimulationOptions forced = charged;
    forced.batch_quantum = 1e-300;
    const RunResult train = Simulate(workload, policy, forced);
    ExpectSameRun(per_tuple, train, sched::PolicyKindName(kind));
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesAtOperatorLevel) {
  const query::Workload workload = TestWorkload(GetParam());
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    SimulationOptions options;
    options.level = exec::SchedulingLevel::kOperatorLevel;
    const RunResult per_tuple = Simulate(workload, policy, options);
    SimulationOptions forced = options;
    forced.batch_quantum = 1e-300;
    const RunResult train = Simulate(workload, policy, forced);
    ExpectSameRun(per_tuple, train,
                  std::string(sched::PolicyKindName(kind)) + "/op-level");
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesOnWindowJoins) {
  const query::Workload workload =
      TestWorkload(GetParam(), /*multi_stream=*/true);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kLsf}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult per_tuple = Simulate(workload, policy);
    SimulationOptions forced;
    forced.batch_quantum = 1e-300;
    const RunResult train = Simulate(workload, policy, forced);
    ExpectSameRun(per_tuple, train,
                  std::string(sched::PolicyKindName(kind)) + "/joins");
  }
}

// Drift options over the middle of the workload's horizon: a third of the
// queries ramp to 2.5x cost and 0.6x selectivity.
SimulationOptions DriftOptions(const query::Workload& workload) {
  const SimTime span = workload.arrivals.Horizon();
  SimulationOptions options;
  options.drift.enabled = true;
  options.drift.modulo = 3;
  options.drift.cost_factor = 2.5;
  options.drift.selectivity_factor = 0.6;
  options.drift.step_time = 0.3 * span;
  options.drift.ramp_seconds = 0.2 * span;
  return options;
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesPerTupleUnderDrift) {
  const query::Workload workload = TestWorkload(GetParam());
  for (const exec::SchedulingLevel level :
       {exec::SchedulingLevel::kQueryLevel,
        exec::SchedulingLevel::kOperatorLevel}) {
    for (const sched::PolicyKind kind :
         {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd,
          sched::PolicyKind::kFcfs}) {
      const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
      SimulationOptions options = DriftOptions(workload);
      options.level = level;
      const RunResult per_tuple = Simulate(workload, policy, options);
      SimulationOptions forced = options;
      forced.batch_quantum = 1e-300;
      const RunResult train = Simulate(workload, policy, forced);
      EXPECT_EQ(train.counters.max_train_tuples, 1)
          << sched::PolicyKindName(kind);
      ExpectSameRun(per_tuple, train,
                    std::string(sched::PolicyKindName(kind)) + "/drift" +
                        (level == exec::SchedulingLevel::kQueryLevel
                             ? ""
                             : "/op-level"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingEquivalenceTest,
                         testing::Values(1u, 7u, 42u));

// batch_size=1 (the default) must not merely be equivalent — it must be the
// *same engine*, serializing byte-for-byte identically. This is what pins
// the committed BENCH_sweep.json across the batching change.
TEST(BatchingDefaultTest, ExplicitBatchSizeOneSerializesIdentically) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kBsd, sched::PolicyKind::kHnr,
        sched::PolicyKind::kFcfs}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult implicit = Simulate(workload, policy);
    SimulationOptions explicit_one;
    explicit_one.batch_size = 1;
    const RunResult explicit_run = Simulate(workload, policy, explicit_one);
    EXPECT_EQ(implicit.counters.train_dispatches, 0)
        << sched::PolicyKindName(kind);
    EXPECT_EQ(RunResultToJson(implicit), RunResultToJson(explicit_run))
        << sched::PolicyKindName(kind);
  }
}

// Golden trace: one query, one operator, zero overhead cost. A single
// work-conserving server draining one FIFO emits every tuple at the same
// virtual instant no matter how many tuples each dispatch drains, so each
// individual response time must be bit-identical across batch sizes.
TEST(BatchingGoldenTraceTest, PerTupleResponseTimesUnchangedByBatching) {
  Dsms dsms(query::SelectivityMode::kCorrelatedAttribute);
  query::QuerySpec spec;
  spec.left_stream = 0;
  spec.left_ops = {query::MakeSelect(/*cost_ms=*/1.0, /*selectivity=*/0.6)};
  dsms.AddQuery(std::move(spec));

  // Bursts of 12 back-to-back tuples followed by a drain gap: deep enough
  // backlogs that batch>1 runs form real multi-tuple trains.
  stream::ArrivalTable arrivals;
  for (int i = 0; i < 480; ++i) {
    stream::Arrival a;
    a.id = i;
    a.stream = 0;
    a.time = static_cast<double>(i / 12) * 0.02 +
             static_cast<double>(i % 12) * 1e-4;
    a.attribute = static_cast<double>((i * 37) % 100) + 0.5;
    arrivals.arrivals.push_back(a);
  }
  dsms.SetArrivals(std::move(arrivals));

  SimulationOptions options;
  options.qos.track_outputs = true;
  const RunResult baseline =
      dsms.Run(sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);
  ASSERT_GT(baseline.qos.outputs.size(), 100u);

  for (const int batch : {2, 4, 16, 0}) {
    SimulationOptions batched = options;
    batched.batch_size = batch;
    const RunResult r =
        dsms.Run(sched::PolicyConfig::Of(sched::PolicyKind::kHnr), batched);
    ASSERT_EQ(r.qos.outputs.size(), baseline.qos.outputs.size())
        << "batch=" << batch;
    EXPECT_GT(r.counters.max_train_tuples, 1)
        << "batch=" << batch << ": no multi-tuple train ever formed";
    for (size_t i = 0; i < baseline.qos.outputs.size(); ++i) {
      const metrics::OutputRecord& want = baseline.qos.outputs[i];
      const metrics::OutputRecord& got = r.qos.outputs[i];
      ASSERT_EQ(got.query, want.query) << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.arrival_time, want.arrival_time)
          << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.response, want.response)
          << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.slowdown, want.slowdown)
          << "batch=" << batch << " tuple " << i;
    }
  }
}

// Which tuples survive their filters is frozen per (arrival, query,
// operator) — independent of execution order — so single-stream emission,
// filter, and busy-time totals may not move with the batch size even when
// batching reorders service.
TEST(BatchingInvariantsTest, ScheduleIndependentTotalsHoldAtAnyBatchSize) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd,
        sched::PolicyKind::kRoundRobin}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult base = Simulate(workload, policy);
    for (const int batch : {4, 32, 0}) {
      SimulationOptions options;
      options.batch_size = batch;
      const RunResult r = Simulate(workload, policy, options);
      const std::string what = std::string(sched::PolicyKindName(kind)) +
                               "/batch=" + std::to_string(batch);
      EXPECT_EQ(r.qos.tuples_emitted, base.qos.tuples_emitted) << what;
      EXPECT_EQ(r.counters.tuples_filtered, base.counters.tuples_filtered)
          << what;
      EXPECT_NEAR(r.counters.busy_time, base.counters.busy_time, 1e-9)
          << what;
      EXPECT_EQ(r.counters.unit_executions, base.counters.unit_executions)
          << what;
      EXPECT_GT(r.counters.train_dispatches, 0) << what;
      EXPECT_LT(r.counters.train_dispatches, r.counters.train_tuples)
          << what << ": trains never exceeded one tuple";
    }
  }
}

// (query, arrival id) pairs of one event kind in a trace.
std::set<std::pair<int32_t, int64_t>> Outcomes(const obs::EventTracer& tracer,
                                               obs::EventKind kind) {
  std::set<std::pair<int32_t, int64_t>> out;
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == kind) out.insert({e.query, e.a});
  }
  return out;
}

// Drift factors are functions of (query, arrival time), and filter outcomes
// of (arrival, query, operator), so a multi-tuple train under drift emits
// and drops exactly the tuples the per-tuple run does, and charges the same
// work up to the order of its floating-point additions.
TEST(BatchingDriftTest, TrainsKeepEveryTuplesDriftOutcome) {
  for (const query::SelectivityMode mode :
       {query::SelectivityMode::kCorrelatedAttribute,
        query::SelectivityMode::kIndependent}) {
    query::WorkloadConfig config;
    config.num_queries = 20;
    config.num_arrivals = 3000;
    config.utilization = 0.9;
    config.seed = 42;
    config.selectivity_mode = mode;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const exec::SchedulingLevel level :
         {exec::SchedulingLevel::kQueryLevel,
          exec::SchedulingLevel::kOperatorLevel}) {
      for (const sched::PolicyKind kind :
           {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd}) {
        const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
        const std::string what =
            std::string(sched::PolicyKindName(kind)) +
            (mode == query::SelectivityMode::kCorrelatedAttribute
                 ? "/correlated"
                 : "/bernoulli") +
            (level == exec::SchedulingLevel::kQueryLevel ? "" : "/op-level");
        SimulationOptions base = DriftOptions(workload);
        base.level = level;
        SimulationOptions batched = base;
        batched.batch_size = 8;

        const RunResult one = Simulate(workload, policy, base);
        const RunResult eight = Simulate(workload, policy, batched);
        EXPECT_GT(eight.counters.max_train_tuples, 1)
            << what << ": no multi-tuple train ever formed";
        EXPECT_EQ(eight.counters.tuples_emitted, one.counters.tuples_emitted)
            << what;
        EXPECT_EQ(eight.counters.tuples_filtered, one.counters.tuples_filtered)
            << what;
        EXPECT_EQ(eight.counters.operator_invocations,
                  one.counters.operator_invocations)
            << what;
        EXPECT_NEAR(eight.counters.busy_time, one.counters.busy_time,
                    1e-12 * one.counters.busy_time)
            << what;
        // The drift is real: without it the same run filters differently.
        SimulationOptions undrifted = batched;
        undrifted.drift.enabled = false;
        EXPECT_NE(
            Simulate(workload, policy, undrifted).counters.tuples_filtered,
            eight.counters.tuples_filtered)
            << what;

        obs::EventTracer tracer_one(size_t{1} << 20);
        obs::EventTracer tracer_eight(size_t{1} << 20);
        base.tracer = &tracer_one;
        batched.tracer = &tracer_eight;
        Simulate(workload, policy, base);
        Simulate(workload, policy, batched);
        ASSERT_EQ(tracer_one.dropped(), 0) << what;
        ASSERT_EQ(tracer_eight.dropped(), 0) << what;
        const auto emitted = Outcomes(tracer_one, obs::EventKind::kEmit);
        const auto dropped = Outcomes(tracer_one, obs::EventKind::kFilterDrop);
        EXPECT_EQ(static_cast<int64_t>(emitted.size()),
                  one.counters.tuples_emitted)
            << what;
        EXPECT_EQ(static_cast<int64_t>(dropped.size()),
                  one.counters.tuples_filtered)
            << what;
        EXPECT_EQ(Outcomes(tracer_eight, obs::EventKind::kEmit), emitted)
            << what;
        EXPECT_EQ(Outcomes(tracer_eight, obs::EventKind::kFilterDrop), dropped)
            << what;
      }
    }
  }
}

// The point of batching (§9.2, Figure 14): one priority decision — and one
// overhead charge — buys up to k tuples of progress.
TEST(BatchingAmortizationTest, FewerDecisionsAndLessOverheadCharged) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kBsd}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    SimulationOptions charged;
    charged.charge_scheduling_overhead = true;
    const RunResult per_tuple = Simulate(workload, policy, charged);
    SimulationOptions batched = charged;
    batched.batch_size = 8;
    const RunResult r = Simulate(workload, policy, batched);
    const std::string what = sched::PolicyKindName(kind);
    EXPECT_LT(r.counters.scheduling_points,
              per_tuple.counters.scheduling_points)
        << what;
    EXPECT_LT(r.counters.overhead_time, per_tuple.counters.overhead_time)
        << what;
    EXPECT_EQ(r.qos.tuples_emitted, per_tuple.qos.tuples_emitted) << what;
    EXPECT_LE(r.qos.avg_response, per_tuple.qos.avg_response)
        << what << ": amortization did not help under overload";
  }
}

// The quantum knob: with batch_size unbounded, a quantum of a few expected
// costs caps train length by simulated-time budget instead of tuple count.
TEST(BatchingQuantumTest, QuantumBoundsTrainsByExpectedCost) {
  const query::Workload workload = TestWorkload(42);
  const sched::PolicyConfig policy =
      sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
  SimulationOptions unbounded;
  unbounded.batch_size = 0;
  const RunResult free_run = Simulate(workload, policy, unbounded);
  ASSERT_GT(free_run.counters.max_train_tuples, 4);

  SimulationOptions quantum = unbounded;
  // The workload's cheapest operator cost bounds expected unit cost below,
  // so a tiny multiple of it keeps trains far shorter than the unbounded
  // run's deepest drain.
  quantum.batch_quantum = 2.0 * workload.plan.MinOperatorCost();
  const RunResult bounded = Simulate(workload, policy, quantum);
  EXPECT_LT(bounded.counters.max_train_tuples,
            free_run.counters.max_train_tuples);
  EXPECT_EQ(bounded.qos.tuples_emitted, free_run.qos.tuples_emitted);
}

}  // namespace
}  // namespace aqsios::core
