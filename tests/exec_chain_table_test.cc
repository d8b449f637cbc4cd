// The engine's flat chain op table against an independent walk of the query
// specs.
//
// Per-tuple chain outcomes are schedule-independent: whether arrival a
// survives operator x of query q depends only on (a, q, x), the drift
// factors at a's arrival time, and the operator's spec. So the emitted
// (query, arrival) set, the filter drops and the operator invocations of a
// whole run can be predicted by walking CompiledQuery -> QuerySpec ->
// left_ops with Passes' arithmetic, and compared with what the engine's
// table-driven path did — with drift on, with a tracer attached, in both
// selectivity modes, and with misestimated (actual != assumed) selectivities.

#include <cstdint>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/dsms.h"
#include "obs/tracer.h"
#include "query/workload.h"

namespace aqsios::exec {
namespace {

// The engine's frozen-filter salt (exec/engine.cc).
constexpr uint64_t kFilterSalt = 0xf117e500;

struct Expected {
  std::set<std::pair<int32_t, SimTime>> emitted;
  int64_t filtered = 0;
  int64_t invocations = 0;
  SimTime busy = 0.0;
};

Expected WalkSpecs(const query::Workload& workload,
                   const stream::DriftConfig& drift) {
  Expected expected;
  for (const query::CompiledQuery& q : workload.plan.queries()) {
    const int query = static_cast<int>(q.id());
    for (const stream::Arrival& a : workload.arrivals.arrivals) {
      if (a.stream != q.spec().left_stream) continue;
      const double cost_scale = drift.CostFactorAt(query, a.time);
      const double sel_scale = drift.SelectivityFactorAt(query, a.time);
      bool survived = true;
      for (int x = 0; x < q.chain_length(); ++x) {
        const query::OperatorSpec& op =
            q.spec().left_ops[static_cast<size_t>(x)];
        ++expected.invocations;
        expected.busy += op.cost() * cost_scale;
        const double selectivity = op.EffectiveActualSelectivity() * sel_scale;
        if (selectivity >= 1.0) continue;
        const bool passes =
            q.selectivity_mode() ==
                    query::SelectivityMode::kCorrelatedAttribute
                ? a.attribute <= selectivity * 100.0
                : FrozenBernoulli(
                      MixKeys(kFilterSalt, static_cast<uint64_t>(a.id),
                              static_cast<uint64_t>(query),
                              static_cast<uint64_t>(x)),
                      selectivity);
        if (!passes) {
          survived = false;
          break;
        }
      }
      if (survived) {
        expected.emitted.insert({static_cast<int32_t>(query), a.time});
      } else {
        ++expected.filtered;
      }
    }
  }
  return expected;
}

struct ChainCase {
  query::SelectivityMode mode;
  bool drift;
  bool traced;
  // gtest names each case by its raw bytes: spelling the padding out as
  // zeros keeps the names identical from build to build.
  uint8_t zero_padding[2] = {0, 0};
};

class ChainOpTableTest : public ::testing::TestWithParam<ChainCase> {};

TEST_P(ChainOpTableTest, RunMatchesSpecWalk) {
  const ChainCase& c = GetParam();
  query::WorkloadConfig config;
  config.num_queries = 24;
  config.num_arrivals = 3000;
  config.selectivity_mode = c.mode;
  config.selectivity_misestimation = 0.3;
  config.seed = 11;
  const query::Workload workload = query::GenerateWorkload(config);

  core::SimulationOptions options;
  options.qos.track_outputs = true;
  if (c.drift) {
    const SimTime span = workload.arrivals.Horizon();
    options.drift.enabled = true;
    options.drift.modulo = 3;
    options.drift.cost_factor = 2.5;
    options.drift.selectivity_factor = 0.6;
    options.drift.step_time = 0.3 * span;
    options.drift.ramp_seconds = 0.2 * span;
  }
  obs::EventTracer tracer(size_t{1} << 20);
  if (c.traced) options.tracer = &tracer;
  const core::RunResult r = core::Simulate(
      workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);

  const Expected expected = WalkSpecs(workload, options.drift);
  std::set<std::pair<int32_t, SimTime>> emitted;
  for (const metrics::OutputRecord& out : r.qos.outputs) {
    EXPECT_TRUE(emitted.insert({out.query, out.arrival_time}).second);
  }
  EXPECT_GT(expected.emitted.size(), 0u);
  EXPECT_GT(expected.filtered, 0);
  EXPECT_EQ(emitted, expected.emitted);
  EXPECT_EQ(r.counters.tuples_filtered, expected.filtered);
  EXPECT_EQ(r.counters.operator_invocations, expected.invocations);
  // The clock sums the same charges in schedule order.
  EXPECT_NEAR(r.counters.busy_time, expected.busy, 1e-9 * expected.busy);
  if (c.traced) {
    ASSERT_FALSE(tracer.dropped() > 0) << "tracer ring too small";
    EXPECT_EQ(tracer.CountOf(obs::EventKind::kOperatorInvocation),
              expected.invocations);
    EXPECT_EQ(tracer.CountOf(obs::EventKind::kFilterDrop), expected.filtered);
    EXPECT_EQ(tracer.CountOf(obs::EventKind::kEmit),
              static_cast<int64_t>(expected.emitted.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DriftAndTracer, ChainOpTableTest,
    ::testing::Values(
        ChainCase{query::SelectivityMode::kCorrelatedAttribute, false, false},
        ChainCase{query::SelectivityMode::kCorrelatedAttribute, true, false},
        ChainCase{query::SelectivityMode::kCorrelatedAttribute, true, true},
        ChainCase{query::SelectivityMode::kIndependent, true, false},
        ChainCase{query::SelectivityMode::kIndependent, true, true},
        ChainCase{query::SelectivityMode::kIndependent, false, true}));

}  // namespace
}  // namespace aqsios::exec
