// Ablation: run-time statistics estimation under stale selectivity
// estimates (§10's dynamic-environment support).
//
// Workload filters exhibit actual selectivities that deviate from the
// assumed ones by up to ±m. Compared: HNR with the stale assumed statistics,
// HNR with the online calibrator (sched/calibration.h) refreshing
// priorities, and the oracle HNR that knows the actual statistics upfront.
// The calibrator should recover most of the stale-statistics penalty.

#include <iostream>

#include "bench_util.h"
#include "common/table.h"

namespace aqsios {
namespace {

query::GlobalPlan OraclePlan(const query::Workload& workload) {
  std::vector<query::CompiledQuery> queries;
  for (const query::CompiledQuery& q : workload.plan.queries()) {
    query::QuerySpec spec = q.spec();
    for (query::OperatorSpec& op : spec.left_ops) {
      op.selectivity = op.EffectiveActualSelectivity();
      op.actual_selectivity = -1.0;
    }
    queries.emplace_back(std::move(spec), q.selectivity_mode());
  }
  return query::GlobalPlan(std::move(queries), {}, 1);
}

int Main(int argc, const char* const* argv) {
  FlagSet flags("bench_ablation_adaptive");
  double utilization = 0.95;
  double period = 0.25;
  flags.AddDouble("util", &utilization, "system load of the experiment");
  flags.AddDouble("period", &period,
                  "calibration epoch period (virtual seconds)");
  const bench::BenchArgs args =
      bench::ParseBenchArgs("adaptive", argc, argv, &flags);
  bench::PrintHeader(
      "Ablation: online calibration under selectivity drift",
      "calibrated HNR recovers most of the stale-statistics slowdown "
      "penalty");

  Table table({"misestimation", "HNR stale", "HNR adaptive", "HNR oracle",
               "gap recovered (%)"});
  for (double misestimation : {0.0, 0.4, 0.8}) {
    query::WorkloadConfig config = bench::TestbedConfig(args);
    config.utilization = utilization;
    config.selectivity_misestimation = misestimation;
    const query::Workload workload = query::GenerateWorkload(config);

    const core::RunResult stale = core::Simulate(
        workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr));
    core::SimulationOptions adaptive_options;
    adaptive_options.calibration.enabled = true;
    adaptive_options.calibration.period = period;
    const core::RunResult adaptive = core::Simulate(
        workload, sched::PolicyConfig::Of(sched::PolicyKind::kHnr),
        adaptive_options);
    const core::RunResult oracle = core::SimulatePlan(
        OraclePlan(workload), workload.arrivals,
        sched::PolicyConfig::Of(sched::PolicyKind::kHnr));

    const double gap = stale.qos.avg_slowdown - oracle.qos.avg_slowdown;
    const double recovered =
        gap > 0.0
            ? (stale.qos.avg_slowdown - adaptive.qos.avg_slowdown) / gap *
                  100.0
            : 100.0;
    table.AddRow(FormatDouble(misestimation, 2),
                 {stale.qos.avg_slowdown, adaptive.qos.avg_slowdown,
                  oracle.qos.avg_slowdown, recovered});
  }
  std::cout << table.ToAscii() << "\n";
  return 0;
}

}  // namespace
}  // namespace aqsios

int main(int argc, char** argv) { return aqsios::Main(argc, argv); }
