// Columnar kernel path: scalar-vs-columnar equivalence and fusion rules.
//
// use_columnar_kernels only selects an execution strategy for batched chain
// trains — SoA columns, branch-free depth kernels, fused operator runs —
// and must never change a single observable bit: the equivalence suites
// assert byte-equal RunResultToJson between the two engines across every
// policy, batch size, selectivity mode, and the features that ride the
// train path (sharing remainders, adaptation, overhead charging, shedding).
// The fusion tests pin FuseChainOps itself, including the stateful-operator
// boundary that validated plans can never produce (window joins are barred
// from chains by CompiledQuery validation) but the pass must still handle.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "exec/unit_builder.h"
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

query::Workload TestWorkload(uint64_t seed, query::SelectivityMode mode,
                             int sharing_group_size = 0,
                             bool multi_stream = false) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 2500;
  config.utilization = 0.9;
  config.seed = seed;
  config.selectivity_mode = mode;
  config.sharing_group_size = sharing_group_size;
  config.multi_stream = multi_stream;
  return query::GenerateWorkload(config);
}

/// Runs `workload` twice, identical but for use_columnar_kernels, and
/// asserts the serialized results are byte-equal.
void ExpectColumnarMatchesScalar(const query::Workload& workload,
                                 sched::PolicyKind kind,
                                 SimulationOptions options,
                                 const std::string& what) {
  const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
  options.use_columnar_kernels = false;
  const RunResult scalar = Simulate(workload, policy, options);
  options.use_columnar_kernels = true;
  const RunResult columnar = Simulate(workload, policy, options);
  EXPECT_EQ(RunResultToJson(scalar), RunResultToJson(columnar)) << what;
}

class KernelEquivalenceTest : public testing::TestWithParam<uint64_t> {};

// The acceptance matrix: every policy x batch in {1, 8, 32, unbounded} x
// both selectivity modes. batch=1 never engages the columnar path (the
// flag must be a no-op there); the rest run real multi-tuple trains.
TEST_P(KernelEquivalenceTest, ByteEqualAcrossPoliciesBatchesAndModes) {
  for (const query::SelectivityMode mode :
       {query::SelectivityMode::kCorrelatedAttribute,
        query::SelectivityMode::kIndependent}) {
    const query::Workload workload = TestWorkload(GetParam(), mode);
    const char* mode_name =
        mode == query::SelectivityMode::kCorrelatedAttribute ? "correlated"
                                                             : "independent";
    for (const sched::PolicyKind kind : kAllPolicies) {
      for (const int batch : {1, 8, 32, 0}) {
        SimulationOptions options;
        options.batch_size = batch;
        ExpectColumnarMatchesScalar(
            workload, kind, options,
            std::string(sched::PolicyKindName(kind)) + "/" + mode_name +
                "/batch=" + std::to_string(batch));
      }
    }
  }
}

// Sharing groups produce kRemainder units whose segments start mid-chain
// (op_index 1): the kernels must pick up the frozen-draw ordinals from the
// absolute chain position, not the segment-local one.
TEST_P(KernelEquivalenceTest, ByteEqualWithSharingRemainders) {
  for (const query::SelectivityMode mode :
       {query::SelectivityMode::kCorrelatedAttribute,
        query::SelectivityMode::kIndependent}) {
    const query::Workload workload =
        TestWorkload(GetParam(), mode, /*sharing_group_size=*/5);
    for (const sched::PolicyKind kind :
         {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd}) {
      SimulationOptions options;
      options.batch_size = 32;
      ExpectColumnarMatchesScalar(
          workload, kind, options,
          std::string(sched::PolicyKindName(kind)) + "/sharing");
    }
  }
}

// §10 adaptation is the calibrator, whose tap reads each dispatch's
// busy-time and emission deltas: the columnar clock replay must produce the
// identical deltas, or epochs would re-key priorities differently.
TEST_P(KernelEquivalenceTest, ByteEqualUnderAdaptation) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 2500;
  config.utilization = 0.9;
  config.seed = GetParam();
  config.selectivity_misestimation = 0.4;
  const query::Workload workload = query::GenerateWorkload(config);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kBsd}) {
    SimulationOptions options;
    options.batch_size = 32;
    options.calibration.enabled = true;
    const RunResult run =
        Simulate(workload, sched::PolicyConfig::Of(kind), options);
    EXPECT_GT(run.counters.calibration_updates, 0);
    ExpectColumnarMatchesScalar(
        workload, kind, options,
        std::string(sched::PolicyKindName(kind)) + "/calibration");
  }
}

// Overhead charging and source-side shedding both interleave with train
// dispatch (clock charges at scheduling points, queue-cap decisions at
// delivery): identical clocks must yield identical decisions.
TEST_P(KernelEquivalenceTest, ByteEqualWithOverheadAndShedding) {
  const query::Workload workload = TestWorkload(
      GetParam(), query::SelectivityMode::kCorrelatedAttribute);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kHnr}) {
    SimulationOptions options;
    options.batch_size = 32;
    options.charge_scheduling_overhead = true;
    options.shed.enabled = true;
    options.shed.queue_cap = 64;
    options.shed.shed_fraction = 0.5;
    ExpectColumnarMatchesScalar(
        workload, kind, options,
        std::string(sched::PolicyKindName(kind)) + "/overhead+shed");
  }
}

// Window-join workloads never qualify for the columnar path (join inputs
// are stateful units); the flag must still be a strict no-op around them.
TEST_P(KernelEquivalenceTest, ByteEqualOnWindowJoinWorkloads) {
  const query::Workload workload =
      TestWorkload(GetParam(), query::SelectivityMode::kIndependent,
                   /*sharing_group_size=*/0, /*multi_stream=*/true);
  SimulationOptions options;
  options.batch_size = 32;
  ExpectColumnarMatchesScalar(workload, sched::PolicyKind::kHnr, options,
                              "hnr/window-joins");
}

// Operator-level scheduling has no chain units at all.
TEST_P(KernelEquivalenceTest, ByteEqualAtOperatorLevel) {
  const query::Workload workload = TestWorkload(
      GetParam(), query::SelectivityMode::kCorrelatedAttribute);
  SimulationOptions options;
  options.level = exec::SchedulingLevel::kOperatorLevel;
  options.batch_size = 32;
  ExpectColumnarMatchesScalar(workload, sched::PolicyKind::kBsd, options,
                              "bsd/operator-level");
}

/// TestWorkload's arrivals under 20 queries of `num_ops` selects each, the
/// x-th select of query qi at selectivity(qi, x); costs double with the cost
/// class and are scaled to the workload's 0.9 utilization.
template <typename Selectivity>
query::Workload ChainWorkload(uint64_t seed, query::SelectivityMode mode,
                              int num_ops, Selectivity selectivity) {
  query::Workload workload = TestWorkload(seed, mode);
  const auto plan = [&](double cost_scale) {
    std::vector<query::CompiledQuery> queries;
    for (int qi = 0; qi < 20; ++qi) {
      query::QuerySpec spec;
      spec.id = qi;
      spec.left_stream = 0;
      spec.cost_class = qi % 4;
      const double cost_ms = cost_scale * static_cast<double>(1 << (qi % 4));
      for (int x = 0; x < num_ops; ++x) {
        spec.left_ops.push_back(
            query::MakeSelect(cost_ms, selectivity(qi, x)));
      }
      queries.emplace_back(std::move(spec), mode);
    }
    return query::GlobalPlan(std::move(queries), {}, /*num_streams=*/1);
  };
  const double tau = workload.arrivals.MeanInterArrival(0);
  workload.plan = plan(0.9 * tau / plan(1.0).ExpectedWorkPerArrival(0));
  return workload;
}

/// In the even queries of the early-exit workload operator kBlockAt passes
/// nothing: its correlated bound (selectivity * 100) lies below every
/// attribute, and its Bernoulli selectivity is cleared only by an
/// exact-zero draw. So a train's reach counts fall to zero partway through
/// the fused run, and the clock replay stops there.
constexpr int kEarlyExitOps = 6;
constexpr int kBlockAt = 3;
constexpr double kBlockSelectivity = 1e-12;

query::Workload EarlyExitWorkload(uint64_t seed, query::SelectivityMode mode) {
  return ChainWorkload(seed, mode, kEarlyExitOps, [](int qi, int x) {
    return qi % 2 == 0 && x == kBlockAt
               ? kBlockSelectivity
               : 0.95 - 0.1 * static_cast<double>(x);
  });
}

// Trains that a prefix empties before the root: the reach counts hit zero
// partway, the replay's early exit must charge exactly what the scalar
// pass charges, and under calibration the estimator must see the same
// per-dispatch deltas. The blocked queries must emit nothing, which shows
// the early exit really ran.
TEST_P(KernelEquivalenceTest, ByteEqualWhenAPrefixDropsEveryLane) {
  for (const query::SelectivityMode mode :
       {query::SelectivityMode::kCorrelatedAttribute,
        query::SelectivityMode::kIndependent}) {
    const query::Workload workload = EarlyExitWorkload(GetParam(), mode);
    double min_attribute = std::numeric_limits<double>::infinity();
    for (const stream::Arrival& arrival : workload.arrivals.arrivals) {
      min_attribute = std::min(min_attribute, arrival.attribute);
    }
    ASSERT_GT(min_attribute, kBlockSelectivity * 100.0);
    const std::string mode_name =
        mode == query::SelectivityMode::kCorrelatedAttribute ? "correlated"
                                                             : "bernoulli";
    for (const bool calibrate : {false, true}) {
      for (const sched::PolicyKind kind :
           {sched::PolicyKind::kHnr, sched::PolicyKind::kLsf,
            sched::PolicyKind::kBsd}) {
        SimulationOptions options;
        options.batch_size = 32;
        options.calibration.enabled = calibrate;
        options.qos.track_per_query = true;
        const std::string what = std::string(sched::PolicyKindName(kind)) +
                                 "/" + mode_name +
                                 (calibrate ? "/calibration" : "");
        ExpectColumnarMatchesScalar(workload, kind, options, what);
        options.use_columnar_kernels = true;
        const RunResult run = Simulate(
            workload, sched::PolicyConfig::Of(kind), options);
        EXPECT_GT(run.qos.tuples_emitted, 0) << what;
        for (const auto& [query, stats] : run.qos.per_query_slowdown) {
          EXPECT_NE(query % 2, 0) << what << ": blocked query " << query
                                  << " emitted";
        }
      }
    }
  }
}

// Attributes that sit exactly on a select's bound (attribute == s·100, the
// `<=` edge) or one ulp to either side of it, under chains where one
// operator per query has selectivity 1 (an infinite bound) at a position
// that moves with the query. Train caps 2, 3, 5, 31, 33 and unbounded leave
// every remainder of the reach count's four-lane loop to its scalar tail.
TEST_P(KernelEquivalenceTest, ByteEqualWhenAttributesSitOnThresholds) {
  constexpr int kOps = 6;
  const double kSelectivities[] = {0.25, 0.5, 0.7, 0.35, 0.9, 0.6};
  query::Workload workload = ChainWorkload(
      GetParam(), query::SelectivityMode::kCorrelatedAttribute, kOps,
      [&](int qi, int x) {
        return x == qi % kOps ? 1.0 : kSelectivities[(qi + x) % kOps];
      });
  // Every finite bound, computed as the engine computes it.
  std::vector<double> bounds;
  for (const query::CompiledQuery& q : workload.plan.queries()) {
    for (const query::OperatorSpec& op : q.spec().left_ops) {
      const double s = op.EffectiveActualSelectivity();
      if (s < 1.0) bounds.push_back(s * 100.0);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  ASSERT_EQ(bounds.size(), 6u);
  std::vector<stream::Arrival>& arrivals = workload.arrivals.arrivals;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const double bound = bounds[i % bounds.size()];
    const size_t side = (i / bounds.size()) % 3;
    arrivals[i].attribute =
        side == 0   ? bound
        : side == 1 ? std::nextafter(bound, 0.0)
                    : std::nextafter(bound, 100.0);
  }
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kFcfs, sched::PolicyKind::kHnr,
        sched::PolicyKind::kLsf, sched::PolicyKind::kBsd}) {
    for (const int batch : {2, 3, 5, 31, 33, 0}) {
      SimulationOptions options;
      options.batch_size = batch;
      const std::string what = std::string(sched::PolicyKindName(kind)) +
                               "/batch=" + std::to_string(batch);
      ExpectColumnarMatchesScalar(workload, kind, options, what);
      options.use_columnar_kernels = true;
      const RunResult run =
          Simulate(workload, sched::PolicyConfig::Of(kind), options);
      EXPECT_GT(run.qos.tuples_emitted, 0) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest,
                         testing::Values(1u, 42u));

// An attached tracer forces the scalar pass (per-invocation events): a
// traced columnar-flagged run must serialize identically to a traced
// scalar run, and record the same number of events.
TEST(KernelTracerFallbackTest, TracedRunsMatchScalarByteForByte) {
  const query::Workload workload = TestWorkload(
      7, query::SelectivityMode::kCorrelatedAttribute);
  const sched::PolicyConfig policy =
      sched::PolicyConfig::Of(sched::PolicyKind::kLsf);
  obs::EventTracer scalar_tracer(size_t{1} << 20);
  obs::EventTracer columnar_tracer(size_t{1} << 20);
  SimulationOptions options;
  options.batch_size = 32;
  options.use_columnar_kernels = false;
  options.tracer = &scalar_tracer;
  const RunResult scalar = Simulate(workload, policy, options);
  options.use_columnar_kernels = true;
  options.tracer = &columnar_tracer;
  const RunResult columnar = Simulate(workload, policy, options);
  EXPECT_EQ(RunResultToJson(scalar), RunResultToJson(columnar));
  EXPECT_EQ(scalar_tracer.recorded(), columnar_tracer.recorded());
}

// --- Fusion pass (exec::FuseChainOps) ---

TEST(FuseChainOpsTest, StatelessChainCollapsesToOneRun) {
  const std::vector<query::OperatorSpec> ops = {
      query::MakeSelect(1.0, 0.5), query::MakeStoredJoin(2.0, 0.4),
      query::MakeProject(1.0), query::MakeSelect(1.0, 0.9)};
  const exec::ChainFusion fusion = exec::FuseChainOps(ops, 0);
  EXPECT_TRUE(fusion.contiguous);
  ASSERT_EQ(fusion.runs.size(), 1u);
  EXPECT_EQ(fusion.runs[0].first_op, 0);
  EXPECT_EQ(fusion.runs[0].num_ops, 4);
}

TEST(FuseChainOpsTest, MidChainStartKeepsAbsoluteOrdinals) {
  const std::vector<query::OperatorSpec> ops = {
      query::MakeSelect(1.0, 0.5), query::MakeSelect(1.0, 0.6),
      query::MakeProject(1.0)};
  const exec::ChainFusion fusion = exec::FuseChainOps(ops, 1);
  EXPECT_TRUE(fusion.contiguous);
  ASSERT_EQ(fusion.runs.size(), 1u);
  EXPECT_EQ(fusion.runs[0].first_op, 1);
  EXPECT_EQ(fusion.runs[0].num_ops, 2);
}

// The fusion boundary: a stateful operator (window join) splits the fused
// runs and belongs to neither. Validated plans cannot contain one inside a
// chain, so this exercises the pass directly on a hand-built vector.
TEST(FuseChainOpsTest, StatefulOperatorSplitsTheRun) {
  const std::vector<query::OperatorSpec> ops = {
      query::MakeSelect(1.0, 0.5), query::MakeProject(1.0),
      query::MakeWindowJoin(2.0, 0.1, 5.0), query::MakeSelect(1.0, 0.7),
      query::MakeSelect(1.0, 0.8)};
  const exec::ChainFusion fusion = exec::FuseChainOps(ops, 0);
  EXPECT_FALSE(fusion.contiguous) << "the join is covered by no kernel";
  ASSERT_EQ(fusion.runs.size(), 2u);
  EXPECT_EQ(fusion.runs[0].first_op, 0);
  EXPECT_EQ(fusion.runs[0].num_ops, 2);
  EXPECT_EQ(fusion.runs[1].first_op, 3);
  EXPECT_EQ(fusion.runs[1].num_ops, 2);
}

TEST(FuseChainOpsTest, SegmentPastTheStatefulOperatorIsContiguous) {
  const std::vector<query::OperatorSpec> ops = {
      query::MakeSelect(1.0, 0.5), query::MakeWindowJoin(2.0, 0.1, 5.0),
      query::MakeSelect(1.0, 0.7)};
  const exec::ChainFusion fusion = exec::FuseChainOps(ops, 2);
  EXPECT_TRUE(fusion.contiguous);
  ASSERT_EQ(fusion.runs.size(), 1u);
  EXPECT_EQ(fusion.runs[0].first_op, 2);
  EXPECT_EQ(fusion.runs[0].num_ops, 1);
}

TEST(FuseChainOpsTest, EmptySegmentHasNoRuns) {
  const std::vector<query::OperatorSpec> ops = {query::MakeSelect(1.0, 0.5)};
  const exec::ChainFusion fusion = exec::FuseChainOps(ops, 1);
  EXPECT_TRUE(fusion.contiguous);
  EXPECT_TRUE(fusion.runs.empty());
}

// BuildUnits attaches a fusion plan to every chain unit, tiling its
// segment — the precondition for the engine to enable the columnar path.
TEST(FuseChainOpsTest, BuildUnitsTilesEveryChainSegment) {
  const query::Workload workload = TestWorkload(
      3, query::SelectivityMode::kCorrelatedAttribute,
      /*sharing_group_size=*/5);
  const exec::BuiltUnits built = exec::BuildUnits(workload.plan, {});
  ASSERT_EQ(built.chain_fusion.size(), built.units.size());
  int chain_units = 0;
  for (const sched::Unit& unit : built.units) {
    if (unit.kind != sched::UnitKind::kQueryChain &&
        unit.kind != sched::UnitKind::kRemainder) {
      continue;
    }
    ++chain_units;
    const exec::ChainFusion& fusion =
        built.chain_fusion[static_cast<size_t>(unit.id)];
    EXPECT_TRUE(fusion.contiguous) << "unit " << unit.id;
    const int from =
        unit.kind == sched::UnitKind::kRemainder ? unit.op_index : 0;
    const int chain_length =
        workload.plan.query(unit.query).chain_length();
    if (from >= chain_length) {
      EXPECT_TRUE(fusion.runs.empty()) << "unit " << unit.id;
      continue;
    }
    ASSERT_EQ(fusion.runs.size(), 1u) << "unit " << unit.id;
    EXPECT_EQ(fusion.runs[0].first_op, from) << "unit " << unit.id;
    EXPECT_EQ(fusion.runs[0].first_op + fusion.runs[0].num_ops, chain_length)
        << "unit " << unit.id;
  }
  EXPECT_GT(chain_units, 0);
}

}  // namespace
}  // namespace aqsios::core
