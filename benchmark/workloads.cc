#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "query/operator.h"
#include "query/workload.h"
#include "sched/shard_router.h"
#include "stream/arrival_process.h"

namespace aqsios::benchmark {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

namespace {

int64_t Scaled(int64_t count, double scale) {
  return std::max<int64_t>(
      64, static_cast<int64_t>(std::llround(static_cast<double>(count) * scale)));
}

/// Seed of every workload's fixed part, its query population and its
/// arrival-time trace. An input's seed draws only the tuple contents on top
/// of it, so every seed runs the same workload on different tuples.
constexpr uint64_t kTraceSeed = 2006;

/// Keeps `trace`'s arrival times and streams and draws every tuple's
/// attribute (which decides its filter outcomes) and join key from `seed`,
/// as stream::GenerateArrivals draws them.
stream::ArrivalTable WithContents(const stream::ArrivalTable& trace,
                                  int num_streams, int32_t join_keys,
                                  uint64_t seed) {
  std::vector<std::vector<SimTime>> times(static_cast<size_t>(num_streams));
  for (const stream::Arrival& a : trace.arrivals) {
    times[static_cast<size_t>(a.stream)].push_back(a.time);
  }
  Rng rng(seed);
  std::vector<std::vector<stream::Arrival>> per_stream;
  for (int s = 0; s < num_streams; ++s) {
    std::vector<SimTime>& stream_times = times[static_cast<size_t>(s)];
    const int64_t count = static_cast<int64_t>(stream_times.size());
    stream::TraceArrivalProcess process(std::move(stream_times));
    per_stream.push_back(
        stream::GenerateArrivals(process, s, count, rng.Fork(), join_keys));
  }
  return stream::MergeArrivalTables(std::move(per_stream));
}

/// A §8 testbed workload (query::GenerateWorkload) with the fixed trace seed,
/// its tuple contents redrawn from `seed`.
Inputs GenerateTestbed(query::WorkloadConfig config, uint64_t seed) {
  config.seed = kTraceSeed;
  query::Workload workload = query::GenerateWorkload(config);
  return {std::move(workload.plan),
          WithContents(workload.arrivals, workload.plan.num_streams(),
                       config.num_join_keys, seed)};
}

// --- q500-bsd: the paper's §8 testbed at its own 500-query scale ----------

Inputs GenerateQ500(uint64_t seed, double scale) {
  query::WorkloadConfig config;
  config.num_queries = 500;
  config.utilization = 0.9;
  config.num_arrivals = Scaled(2000, scale);
  return GenerateTestbed(config, seed);
}

// --- kernel-train: deep correlated select chains under bursty backlog -----

/// The kernel-stress query shape: 48-select correlated chains whose
/// selectivities step from 0.98 down to 0.15 in plateaus of four, with
/// operator costs cycling through four classes, all scaled by `cost_scale`.
query::GlobalPlan KernelPlan(int queries, double cost_scale) {
  constexpr int kChainOps = 48;
  constexpr int kPlateau = 4;
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(static_cast<size_t>(queries));
  for (int qi = 0; qi < queries; ++qi) {
    query::QuerySpec spec;
    spec.id = qi;
    spec.left_stream = 0;
    spec.cost_class = qi % 4;
    const double cost_ms = cost_scale * static_cast<double>(1 << (qi % 4));
    for (int x = 0; x < kChainOps; ++x) {
      const int step = (x / kPlateau) * kPlateau;
      const double selectivity =
          0.98 - (0.98 - 0.15) * static_cast<double>(step) /
                     static_cast<double>(kChainOps - 1);
      spec.left_ops.push_back(query::MakeSelect(cost_ms, selectivity));
    }
    compiled.emplace_back(std::move(spec),
                          query::SelectivityMode::kCorrelatedAttribute);
  }
  return query::GlobalPlan(std::move(compiled), {}, /*num_streams=*/1);
}

Inputs GenerateKernelTrain(uint64_t seed, double scale) {
  constexpr int kQueries = 200;
  constexpr double kUtilization = 0.8;
  stream::OnOffArrivalProcess process(stream::OnOffConfig{}, kTraceSeed);
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.push_back(
      stream::GenerateArrivals(process, 0, Scaled(50000, scale), seed));
  Inputs inputs;
  inputs.arrivals = stream::MergeArrivalTables(std::move(per_stream));
  const double tau = inputs.arrivals.MeanInterArrival(0);
  AQSIOS_CHECK_GT(tau, 0.0);
  const double unit_work = KernelPlan(kQueries, 1.0).ExpectedWorkPerArrival(0);
  inputs.plan = KernelPlan(kQueries, kUtilization * tau / unit_work);
  return inputs;
}

// --- join-window: the §9.1.7 two-stream window-join testbed ---------------

Inputs GenerateJoinWindow(uint64_t seed, double scale) {
  query::WorkloadConfig config;
  config.num_queries = 60;
  config.utilization = 0.9;
  config.multi_stream = true;
  config.join_streams = 2;
  config.arrival_pattern = query::ArrivalPattern::kPoisson;
  config.poisson_rate = 50.0;
  config.window_min_seconds = 1.0;
  config.window_max_seconds = 10.0;
  config.num_join_keys = 100;
  config.num_arrivals = Scaled(40000, scale);
  return GenerateTestbed(config, seed);
}

// --- skew-elastic: sharing groups whose load the hash placement skews -----

constexpr int kSkewGroupSize = 10;
constexpr int kSkewShards = 4;

/// `num_groups` sharing groups of kSkewGroupSize queries; group g reads its
/// own stream g through a shared select leaf, a stored join and a project,
/// all costed at `cost_ms_of_group[g]`.
query::GlobalPlan SkewPlan(int num_groups,
                           const std::vector<double>& cost_ms_of_group) {
  std::vector<query::CompiledQuery> compiled;
  std::vector<query::SharingGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    query::SharingGroup group;
    group.id = g;
    const double cost_ms = cost_ms_of_group[static_cast<size_t>(g)];
    for (int j = 0; j < kSkewGroupSize; ++j) {
      query::QuerySpec spec;
      spec.id = g * kSkewGroupSize + j;
      spec.left_stream = g;
      spec.left_ops = {query::MakeSelect(cost_ms, 0.5),
                       query::MakeStoredJoin(cost_ms, 0.3 + 0.1 * (j % 5)),
                       query::MakeProject(cost_ms)};
      group.members.push_back(spec.id);
      compiled.emplace_back(std::move(spec),
                            query::SelectivityMode::kCorrelatedAttribute);
    }
    groups.push_back(std::move(group));
  }
  return query::GlobalPlan(std::move(compiled), std::move(groups), num_groups);
}

/// The dominant group carries half the arrivals, and the groups the hash
/// placement puts on the most-populated shard together carry 65% of the
/// busy time, so the static placement bottlenecks on that shard while each
/// group stays small enough for the rebalance controller to move.
Inputs GenerateSkewElastic(uint64_t seed, double scale) {
  constexpr int kGroups = 200;
  constexpr double kHotBusyMass = 0.65;
  constexpr double kUtilization = 0.9;
  const int64_t arrivals = Scaled(400000, scale);
  const size_t n = static_cast<size_t>(kGroups);

  const sched::ShardAssignment assignment = sched::AssignShards(
      SkewPlan(kGroups, std::vector<double>(n, 1.0)), kSkewShards,
      core::SimulationOptions{}.shard_seed);
  std::vector<int> shard_of_group(n);
  std::vector<int> groups_of_shard(kSkewShards, 0);
  for (int g = 0; g < kGroups; ++g) {
    shard_of_group[static_cast<size_t>(g)] =
        assignment.shard_of_query[static_cast<size_t>(g * kSkewGroupSize)];
    ++groups_of_shard[static_cast<size_t>(
        shard_of_group[static_cast<size_t>(g)])];
  }
  const int hot_shard = static_cast<int>(
      std::max_element(groups_of_shard.begin(), groups_of_shard.end()) -
      groups_of_shard.begin());
  const int hot_groups = groups_of_shard[static_cast<size_t>(hot_shard)];
  AQSIOS_CHECK(hot_groups > 0 && hot_groups < kGroups);

  int dominant = -1;
  for (int g = 0; g < kGroups && dominant < 0; ++g) {
    if (shard_of_group[static_cast<size_t>(g)] == hot_shard) dominant = g;
  }
  std::vector<int64_t> counts(n, std::max<int64_t>(
                                     (arrivals - arrivals / 2) / (kGroups - 1), 1));
  counts[static_cast<size_t>(dominant)] = arrivals / 2;

  std::vector<double> costs(n);
  for (int g = 0; g < kGroups; ++g) {
    const bool hot = shard_of_group[static_cast<size_t>(g)] == hot_shard;
    const double mass =
        hot ? kHotBusyMass / hot_groups
            : (1.0 - kHotBusyMass) / (kGroups - hot_groups);
    costs[static_cast<size_t>(g)] =
        mass / (static_cast<double>(counts[static_cast<size_t>(g)]) /
                static_cast<double>(arrivals));
  }

  // Per-group Poisson streams over a common horizon of ~1000 arrivals/s.
  const double horizon = static_cast<double>(arrivals) / 1000.0;
  Rng trace_rng(kTraceSeed);
  Rng content_rng(seed);
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.reserve(n);
  for (int g = 0; g < kGroups; ++g) {
    const int64_t count = counts[static_cast<size_t>(g)];
    stream::PoissonArrivalProcess process(static_cast<double>(count) / horizon,
                                          trace_rng.Fork());
    per_stream.push_back(
        stream::GenerateArrivals(process, g, count, content_rng.Fork()));
  }
  Inputs inputs;
  inputs.arrivals = stream::MergeArrivalTables(std::move(per_stream));

  // One multiplier calibrates the total work to kUtilization of the span.
  const query::GlobalPlan probe = SkewPlan(kGroups, costs);
  double work = 0.0;
  for (int g = 0; g < kGroups; ++g) {
    work += static_cast<double>(counts[static_cast<size_t>(g)]) *
            probe.ExpectedWorkPerArrival(g);
  }
  AQSIOS_CHECK_GT(work, 0.0);
  const double multiplier = kUtilization * inputs.arrivals.Horizon() / work;
  for (double& cost : costs) cost *= multiplier;
  inputs.plan = SkewPlan(kGroups, costs);
  return inputs;
}

// --- overload-admit: sustained 2x overload behind admission and shedding --

Inputs GenerateOverloadAdmit(uint64_t seed, double scale) {
  query::WorkloadConfig config;
  config.num_queries = 2000;
  config.utilization = 2.0;
  config.num_arrivals = Scaled(16000, scale);
  return GenerateTestbed(config, seed);
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    WorkloadSpec w;
    w.name = "q500-bsd";
    w.generate = GenerateQ500;
    w.policy = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
    w.identity = Identity::kEmittedPlusFiltered;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "kernel-train";
    w.generate = GenerateKernelTrain;
    w.policy = sched::PolicyConfig::Of(sched::PolicyKind::kLsf);
    w.options.batch_size = 32;
    w.options.use_columnar_kernels = true;
    w.options.charge_scheduling_overhead = true;
    w.identity = Identity::kEmittedPlusFiltered;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "join-window";
    w.generate = GenerateJoinWindow;
    w.policy = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "skew-elastic";
    w.generate = GenerateSkewElastic;
    w.policy = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
    w.options.shards = kSkewShards;
    w.options.shard_threads = 1;
    w.options.rebalance.enabled = true;
    w.options.rebalance.max_migrations_per_epoch = 8;
    // Half-second epochs: with the default span/32 the greedy controller's
    // first few choices decide most of the run, and one seed in six ran its
    // average slowdown 27% above the others; at 0.5 s six seeds stay within
    // 3% of each other.
    w.options.rebalance.epoch_seconds = 0.5;
    w.identity = Identity::kRoutedOnce;
    all.push_back(std::move(w));
  }
  {
    WorkloadSpec w;
    w.name = "overload-admit";
    w.generate = GenerateOverloadAdmit;
    w.policy = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
    w.options.shards = 2;
    w.options.shard_threads = 1;
    w.options.shed.enabled = true;
    w.options.shed.queue_cap = 4096;
    w.options.shed.shed_fraction = 1.0;
    // The per-window budget depends on the generated span; RunOptions sets
    // it per run.
    w.options.admission.enabled = true;
    w.options.admission.window_seconds = 1.0;
    w.identity = Identity::kOfferedAndRefused;
    all.push_back(std::move(w));
  }
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = MakeWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::SimulationOptions RunOptions(const WorkloadSpec& w,
                                   const Inputs& inputs) {
  core::SimulationOptions options = w.options;
  if (options.admission.enabled) {
    // Budget 0.75 of the offered per-window demand. Every shard subscribes
    // to the single stream (the queries hash across all of them), so each
    // arrival is offered to `shards` lanes.
    const double windows = std::max(
        1.0, std::ceil(inputs.arrivals.Horizon() /
                       options.admission.window_seconds));
    const double offered = static_cast<double>(options.shards) *
                           static_cast<double>(inputs.arrivals.size());
    options.admission.tuples_per_window =
        std::max<int64_t>(1, std::llround(0.75 * offered / windows));
  }
  return options;
}

int64_t AttemptedDeliveries(const Inputs& inputs) {
  std::vector<int64_t> readers(
      static_cast<size_t>(inputs.plan.num_streams()), 0);
  for (const query::CompiledQuery& q : inputs.plan.queries()) {
    ++readers[static_cast<size_t>(q.spec().left_stream)];
    if (q.spec().is_multi_stream()) {
      ++readers[static_cast<size_t>(q.spec().right_stream)];
    }
  }
  int64_t attempted = 0;
  for (const stream::Arrival& a : inputs.arrivals.arrivals) {
    attempted += readers[static_cast<size_t>(a.stream)];
  }
  return attempted;
}

RunOutcome Run(const WorkloadSpec& w, const Inputs& inputs,
               const core::SimulationOptions& options,
               const std::vector<obs::EventTracer*>* shard_tracers) {
  RunOutcome run;
  const auto start = std::chrono::steady_clock::now();
  if (w.sharded()) {
    core::ShardedRunResult sharded = core::SimulateShardedPlan(
        inputs.plan, inputs.arrivals, w.policy, options, shard_tracers);
    run.wall_s = SecondsSince(start);
    run.load_imbalance = sharded.LoadImbalance();
    run.result = std::move(sharded.result);
    run.shard_stats = std::move(sharded.shard_stats);
    run.assignment = std::move(sharded.assignment);
  } else {
    run.result =
        core::SimulatePlan(inputs.plan, inputs.arrivals, w.policy, options);
    run.wall_s = SecondsSince(start);
  }
  return run;
}

std::string CheckIdentity(const WorkloadSpec& w, const Inputs& inputs,
                          const RunOutcome& run) {
  const exec::RunCounters& c = run.result.counters;
  std::ostringstream error;
  switch (w.identity) {
    case Identity::kNone:
      break;
    case Identity::kEmittedPlusFiltered: {
      const int64_t pairs =
          inputs.arrivals.size() * inputs.plan.num_queries();
      if (c.tuples_emitted + c.tuples_filtered != pairs) {
        error << "emitted " << c.tuples_emitted << " + filtered "
              << c.tuples_filtered << " != arrivals x queries " << pairs;
      }
      break;
    }
    case Identity::kOfferedAndRefused: {
      if (c.tuples_emitted + c.tuples_filtered + c.tuples_shed !=
          c.tuples_offered) {
        error << "emitted " << c.tuples_emitted << " + filtered "
              << c.tuples_filtered << " + shed " << c.tuples_shed
              << " != offered " << c.tuples_offered;
        break;
      }
      // One stream: a refused (arrival, shard) pair loses every query of
      // that shard.
      AQSIOS_CHECK_EQ(inputs.plan.num_streams(), 1);
      int64_t refused = 0;
      for (const core::ShardRunStats& s : run.shard_stats) {
        refused += s.admission_dropped *
                   static_cast<int64_t>(
                       run.assignment.queries_of_shard[static_cast<size_t>(
                           s.shard)].size());
      }
      const int64_t attempted = AttemptedDeliveries(inputs);
      if (c.tuples_offered + refused != attempted) {
        error << "offered " << c.tuples_offered << " + refused " << refused
              << " != attempted " << attempted;
      }
      break;
    }
    case Identity::kRoutedOnce: {
      int64_t routed = 0;
      for (const core::ShardRunStats& s : run.shard_stats) {
        routed += s.arrivals;
      }
      if (routed != inputs.arrivals.size()) {
        error << "shards delivered " << routed << " arrivals, table holds "
              << inputs.arrivals.size();
      }
      break;
    }
  }
  return error.str();
}

double DeliveredFraction(const WorkloadSpec& w, const Inputs& inputs,
                         const RunOutcome& run) {
  if (!w.options.shed.enabled) {
    // Without shedding the engines do not count offered tuples; nothing in
    // these configurations can refuse work.
    AQSIOS_CHECK(!w.options.admission.enabled);
    return 1.0;
  }
  const exec::RunCounters& c = run.result.counters;
  return static_cast<double>(c.tuples_offered - c.tuples_shed) /
         static_cast<double>(AttemptedDeliveries(inputs));
}

}  // namespace aqsios::benchmark
