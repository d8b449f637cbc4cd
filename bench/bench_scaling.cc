// Shard-scaling curve for the partitioned runtime (docs/scaling.md).
//
// Runs the 500-query §8 testbed cell under BSD (§4.2.2) at shards ∈
// {1, 2, 4, 8} and reports the wall-clock scaling curve. Two effects add up:
// each of K shard engines owns ~n/K units, so its kinetic-index picks and
// re-keys work over a smaller ready set, and the K engines run on concurrent
// worker threads. `--threads 1` runs the shards one after another and keeps
// only the first effect; docs/scaling.md splits the K = 4 speedup that way.
//
// Cells are spliced into the aqsios-bench-perf/1 report (default:
// BENCH_perf.json — run from the repo root to refresh the tracked
// trajectory) as
//   {"name": "scaling/bsd/q=500/shards=K", "ns_per_op": wall_ns/arrivals,
//    "ops": arrivals, "wall_ms": W, "tuples_per_wall_sec": T,
//    "speedup_vs_shards1": S, "load_imbalance": L, "avg_slowdown": A}
// Existing scaling/ lines are replaced; every other benchmark line and the
// report header are preserved byte-for-byte, so refreshing the scaling curve
// never perturbs the committed micro-benchmark baselines.
//
// The suite also owns the skewed-workload cells for the elastic rebalancer
// (docs/scaling.md): a hand-built plan whose sharing groups each read their
// own stream, with the dominant group carrying ~50% of the arrival mass and
// the groups that hash placement co-locates on one shard carrying ~65% of
// the busy mass. The same workload runs three ways at shards=4 —
//   {"name": "scaling/skew/static/..."}     hash placement, no controller
//   {"name": "scaling/skew/rebalance/..."}  elastic rebalance controller on
//   {"name": "scaling/skew/steal/..."}      work stealing only, no migration
// — each reporting load_imbalance, avg_slowdown, tuples_per_wall_sec, and
// (for the elastic cells) migrations/steals plus speedup_vs_static. In full
// mode the suite aborts unless scaling/skew/rebalance halves the static
// cell's load_imbalance and cuts its avg_slowdown to at most 0.1x: in a
// simulator, rebalancing changes virtual QoS, and wall-clock speedup on
// this cell mostly measures per-pick cost removed from the hot shard.
// scripts/perf_compare.py gates the same load_imbalance ratio.
//
// The suite also measures live-telemetry overhead (docs/telemetry.md): the
// shards=4 cell re-runs in alternating bare / sampled pairs, the sampled run
// with an aggressive 20 ms obs::TelemetrySampler attached, and the pair of
// cells is spliced as
//   {"name": "telemetry/sampler_off/q=500/shards=4", ...}
//   {"name": "telemetry/sampler_on/q=500/shards=4", ...,
//    "telemetry_overhead_pct": P, "telemetry_overhead_iqr_pct": I,
//    "pairs": N}
// where P is the median of the N per-pair overheads and I their
// interquartile range. scripts/perf_compare.py gates telemetry_overhead_pct
// (default max 2%).
// --metrics-out / --telemetry-jsonl / --metrics-port additionally attach a
// sampler to the first repetition of every scaling cell for live viewing
// (e.g. trace_tool top); min-wall timing still comes from the bare reps.
//
// In full mode the suite aborts unless shards=4 clears 2.5x the shards=1
// throughput (the tentpole acceptance bar); --quick skips the bar and runs a
// scaled-down cell as a CI/TSan smoke test.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/dsms.h"
#include "core/sharded_dsms.h"
#include "obs/telemetry.h"
#include "query/workload.h"
#include "sched/policy.h"
#include "sched/shard_router.h"
#include "stream/arrival_process.h"

namespace aqsios {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ScalingCell {
  int shards = 0;
  double wall_ms = 0.0;           // fastest repetition
  double tuples_per_wall_sec = 0.0;
  double speedup_vs_shards1 = 0.0;
  double load_imbalance = 1.0;
  double avg_slowdown = 0.0;
  int64_t tuples_emitted = 0;
};

/// One timed (shards=K) run, with a live obs::TelemetrySampler attached
/// when `sampled`. Folds the run into `cell`: the first run sets the virtual
/// results, later runs must agree with them exactly (the determinism
/// contract of docs/scaling.md) or the bench aborts — and since sampled and
/// bare runs are compared by the same CHECK, a sampler that perturbed
/// results would abort the suite. `cell.wall_ms` keeps the fastest run.
/// Returns this run's wall milliseconds.
double TimeRun(const query::Workload& workload,
               const sched::PolicyConfig& policy, int shards, int threads,
               const obs::TelemetryOptions& telemetry, bool sampled,
               ScalingCell* cell) {
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.shards = shards;
  options.shard_threads = threads;
  obs::TelemetryHub hub(shards);
  obs::TelemetryMeta meta;
  meta.job = "bench_scaling";
  meta.policy = "bsd";
  obs::TelemetrySampler sampler(&hub, telemetry, meta);
  options.telemetry = sampled ? &hub : nullptr;
  if (sampled) sampler.Start();
  const Clock::time_point start = Clock::now();
  int64_t tuples = 0;
  double slowdown = 0.0;
  double imbalance = 1.0;
  if (shards > 1) {
    const core::ShardedRunResult sharded =
        core::SimulateSharded(workload, policy, options);
    tuples = sharded.result.qos.tuples_emitted;
    slowdown = sharded.result.qos.avg_slowdown;
    imbalance = sharded.LoadImbalance();
  } else {
    const core::RunResult result = core::Simulate(workload, policy, options);
    tuples = result.qos.tuples_emitted;
    slowdown = result.qos.avg_slowdown;
  }
  if (sampled) sampler.Stop();
  const double ms = ElapsedMs(start);
  if (cell->shards == 0) {
    cell->shards = shards;
    cell->wall_ms = ms;
    cell->tuples_emitted = tuples;
    cell->avg_slowdown = slowdown;
    cell->load_imbalance = imbalance;
  } else {
    AQSIOS_CHECK(tuples == cell->tuples_emitted &&
                 slowdown == cell->avg_slowdown)
        << "repeated sharded runs diverged at shards=" << shards;
    cell->wall_ms = std::min(cell->wall_ms, ms);
  }
  cell->tuples_per_wall_sec =
      cell->wall_ms > 0.0 ? static_cast<double>(cell->tuples_emitted) /
                                (cell->wall_ms / 1e3)
                          : 0.0;
  return ms;
}

/// One (shards=K) measurement: `reps` timed runs, fastest kept. With
/// `sample_first`, rep 0 runs with the live sampler attached (live viewing);
/// the fastest rep is still almost always a bare one.
ScalingCell RunCell(const query::Workload& workload,
                    const sched::PolicyConfig& policy, int shards,
                    int threads, int reps,
                    const obs::TelemetryOptions& telemetry,
                    bool sample_first) {
  ScalingCell cell;
  for (int rep = 0; rep < reps; ++rep) {
    TimeRun(workload, policy, shards, threads, telemetry,
            sample_first && rep == 0, &cell);
  }
  return cell;
}

/// Linear-interpolation quantile of `sorted` (ascending, non-empty).
double Quantile(const std::vector<double>& sorted, double q) {
  const double h = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The sampler-overhead measurement: `pairs` back-to-back (bare, sampled)
/// runs of one cell, alternating which goes first, so host-speed drift over
/// the measurement lands on both sides. The overhead is read per pair.
struct SamplerOverhead {
  ScalingCell off;
  ScalingCell on;
  int pairs = 0;
  double median_pct = 0.0;
  double iqr_pct = 0.0;
};

SamplerOverhead MeasureSamplerOverhead(const query::Workload& workload,
                                       const sched::PolicyConfig& policy,
                                       int shards, int threads, int pairs,
                                       const obs::TelemetryOptions& sampler) {
  SamplerOverhead result;
  result.pairs = pairs;
  std::vector<double> pct;
  for (int i = 0; i < pairs; ++i) {
    double ms[2] = {0.0, 0.0};  // [bare, sampled]
    for (const int sampled : {i % 2, 1 - i % 2}) {
      ms[sampled] = TimeRun(workload, policy, shards, threads, sampler,
                            sampled == 1,
                            sampled == 1 ? &result.on : &result.off);
    }
    pct.push_back(ms[0] > 0.0 ? (ms[1] - ms[0]) / ms[0] * 100.0 : 0.0);
  }
  AQSIOS_CHECK(result.on.tuples_emitted == result.off.tuples_emitted &&
               result.on.avg_slowdown == result.off.avg_slowdown)
      << "an attached sampler changed the results";
  std::sort(pct.begin(), pct.end());
  result.median_pct = Quantile(pct, 0.5);
  result.iqr_pct = Quantile(pct, 0.75) - Quantile(pct, 0.25);
  return result;
}

std::string CellLine(const ScalingCell& cell, int queries, int64_t arrivals) {
  std::ostringstream os;
  os.precision(17);
  const double wall_ns = cell.wall_ms * 1e6;
  os << "    {\"name\": \"scaling/bsd/q=" << queries
     << "/shards=" << cell.shards << "\", \"ns_per_op\": "
     << wall_ns / static_cast<double>(std::max<int64_t>(arrivals, 1))
     << ", \"ops\": " << arrivals << ", \"wall_ms\": " << cell.wall_ms
     << ", \"tuples_per_wall_sec\": " << cell.tuples_per_wall_sec
     << ", \"speedup_vs_shards1\": " << cell.speedup_vs_shards1
     << ", \"load_imbalance\": " << cell.load_imbalance
     << ", \"avg_slowdown\": " << cell.avg_slowdown << "}";
  return os.str();
}

/// One cell of the sampler-overhead pair (fastest run of its side).
std::string OverheadLine(const SamplerOverhead& overhead, bool sampler_on,
                         int queries, int64_t arrivals) {
  std::ostringstream os;
  os.precision(17);
  const ScalingCell& cell = sampler_on ? overhead.on : overhead.off;
  const double wall_ns = cell.wall_ms * 1e6;
  os << "    {\"name\": \"telemetry/sampler_"
     << (sampler_on ? "on" : "off") << "/q=" << queries
     << "/shards=" << cell.shards << "\", \"ns_per_op\": "
     << wall_ns / static_cast<double>(std::max<int64_t>(arrivals, 1))
     << ", \"ops\": " << arrivals << ", \"wall_ms\": " << cell.wall_ms;
  if (sampler_on) {
    os << ", \"telemetry_overhead_pct\": " << overhead.median_pct
       << ", \"telemetry_overhead_iqr_pct\": " << overhead.iqr_pct
       << ", \"pairs\": " << overhead.pairs;
  }
  os << ", \"tuples_emitted\": " << cell.tuples_emitted << "}";
  return os.str();
}

// --- Skewed-workload cells (elastic rebalancing, docs/scaling.md) ----------

/// Builds the skew plan: `num_groups` sharing groups of `group_size` queries,
/// group g reading its own stream g through a shared select leaf, a stored
/// join, and a project, all costed at `cost_ms_of_group[g]`.
query::GlobalPlan BuildSkewPlan(int num_groups, int group_size,
                                const std::vector<double>& cost_ms_of_group) {
  std::vector<query::QuerySpec> specs;
  std::vector<query::SharingGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    query::SharingGroup group;
    group.id = g;
    const double cost_ms = cost_ms_of_group[static_cast<size_t>(g)];
    for (int j = 0; j < group_size; ++j) {
      const query::QueryId id = g * group_size + j;
      query::QuerySpec spec;
      spec.id = id;
      spec.left_stream = g;
      spec.left_ops = {query::MakeSelect(cost_ms, 0.5),
                       query::MakeStoredJoin(cost_ms, 0.3 + 0.1 * (j % 5)),
                       query::MakeProject(cost_ms)};
      group.members.push_back(id);
      specs.push_back(std::move(spec));
    }
    groups.push_back(std::move(group));
  }
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(specs.size());
  for (query::QuerySpec& spec : specs) {
    compiled.emplace_back(std::move(spec), query::SelectivityMode::kIndependent);
  }
  return query::GlobalPlan(std::move(compiled), std::move(groups), num_groups);
}

/// Per-stream Poisson arrivals over a common `horizon`, `counts[s]` arrivals
/// on stream s, merged into one time-ordered table.
stream::ArrivalTable SkewArrivals(const std::vector<int64_t>& counts,
                                  double horizon, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.reserve(counts.size());
  for (size_t s = 0; s < counts.size(); ++s) {
    const double rate =
        static_cast<double>(std::max<int64_t>(counts[s], 1)) / horizon;
    stream::PoissonArrivalProcess process(rate, rng.Fork());
    per_stream.push_back(stream::GenerateArrivals(
        process, static_cast<stream::StreamId>(s), counts[s], rng.Fork()));
  }
  return stream::MergeArrivalTables(std::move(per_stream));
}

/// The skewed cell workload. Skew is built on two axes the hash placement is
/// blind to: the dominant sharing group carries ~50% of the arrival mass,
/// and the sharing groups that AssignShards happens to co-locate on one
/// shard ("hot" groups) together carry `hot_busy_mass` of the busy time —
/// so the static placement bottlenecks on that shard while the per-group
/// masses stay small enough for the rebalance controller to spread.
query::Workload MakeSkewWorkload(int queries, int64_t arrivals, uint64_t seed,
                                 int shards, double utilization,
                                 int* hot_groups_out) {
  constexpr int kGroupSize = 10;
  constexpr double kHotBusyMass = 0.65;
  const int num_groups = std::max(queries / kGroupSize, 2 * shards);
  const size_t n = static_cast<size_t>(num_groups);

  // Shape pass: placement depends only on ids and grouping, not costs.
  std::vector<double> costs(n, 1.0);
  query::GlobalPlan shape = BuildSkewPlan(num_groups, kGroupSize, costs);
  const sched::ShardAssignment assignment = sched::AssignShards(
      shape, shards, core::SimulationOptions{}.shard_seed);
  std::vector<int> groups_of_shard(static_cast<size_t>(shards), 0);
  for (int g = 0; g < num_groups; ++g) {
    ++groups_of_shard[static_cast<size_t>(
        assignment.shard_of_query[static_cast<size_t>(g * kGroupSize)])];
  }
  int hot_shard = 0;
  for (int s = 1; s < shards; ++s) {
    if (groups_of_shard[static_cast<size_t>(s)] >
        groups_of_shard[static_cast<size_t>(hot_shard)]) {
      hot_shard = s;
    }
  }
  const int hot_groups = groups_of_shard[static_cast<size_t>(hot_shard)];
  if (hot_groups_out != nullptr) *hot_groups_out = hot_groups;
  AQSIOS_CHECK_GT(hot_groups, 0);
  AQSIOS_CHECK_LT(hot_groups, num_groups);

  // Arrival mass: the first hot group dominates with ~50% of all arrivals;
  // every other group splits the rest evenly.
  int dominant = -1;
  std::vector<bool> hot(n, false);
  for (int g = 0; g < num_groups; ++g) {
    if (assignment.shard_of_query[static_cast<size_t>(g * kGroupSize)] ==
        hot_shard) {
      hot[static_cast<size_t>(g)] = true;
      if (dominant < 0) dominant = g;
    }
  }
  std::vector<int64_t> counts(n, 0);
  counts[static_cast<size_t>(dominant)] = arrivals / 2;
  const int64_t rest = arrivals - counts[static_cast<size_t>(dominant)];
  for (int g = 0; g < num_groups; ++g) {
    if (g == dominant) continue;
    counts[static_cast<size_t>(g)] = std::max<int64_t>(
        rest / static_cast<int64_t>(num_groups - 1), 1);
  }

  // Busy mass: hot groups share kHotBusyMass evenly, the rest share the
  // remainder; per-group cost scales are mass / arrival-fraction, then one
  // global multiplier calibrates total work to `utilization` of the horizon.
  const double total_arrivals = static_cast<double>(arrivals);
  for (int g = 0; g < num_groups; ++g) {
    const double mass =
        hot[static_cast<size_t>(g)]
            ? kHotBusyMass / static_cast<double>(hot_groups)
            : (1.0 - kHotBusyMass) /
                  static_cast<double>(num_groups - hot_groups);
    costs[static_cast<size_t>(g)] =
        mass / (static_cast<double>(counts[static_cast<size_t>(g)]) /
                total_arrivals);
  }
  const double horizon =
      static_cast<double>(arrivals) / 1000.0;  // ~1000 arrivals/second
  query::Workload workload;
  workload.arrivals = SkewArrivals(counts, horizon, seed);
  const double span = workload.arrivals.Horizon();
  AQSIOS_CHECK_GT(span, 0.0);
  query::GlobalPlan probe = BuildSkewPlan(num_groups, kGroupSize, costs);
  double work = 0.0;
  for (int g = 0; g < num_groups; ++g) {
    work += static_cast<double>(counts[static_cast<size_t>(g)]) *
            probe.ExpectedWorkPerArrival(static_cast<stream::StreamId>(g));
  }
  AQSIOS_CHECK_GT(work, 0.0);
  const double scale = utilization * span / work;
  for (double& cost : costs) cost *= scale;
  workload.plan = BuildSkewPlan(num_groups, kGroupSize, costs);
  workload.expected_utilization = utilization;
  return workload;
}

struct SkewCell {
  std::string mode;  // "static", "rebalance", "steal"
  double wall_ms = 0.0;
  double tuples_per_wall_sec = 0.0;
  double load_imbalance = 1.0;
  double avg_slowdown = 0.0;
  int64_t tuples_emitted = 0;
  int64_t migrations = 0;
  int64_t steals = 0;
  double speedup_vs_static = 0.0;  // 0 on the static cell itself
};

/// One skew measurement at shards=K: `reps` timed runs, fastest kept, with
/// the same exact-replay determinism CHECK as the main scaling cells
/// (extended to migration/steal counts).
SkewCell RunSkewCell(const query::Workload& workload,
                     const sched::PolicyConfig& policy, int shards,
                     int threads, int reps, const std::string& mode) {
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.shards = shards;
  options.shard_threads = threads;
  if (mode != "static") {
    options.rebalance.enabled = true;
    // The steal cell is a pure work-stealing ablation: migrations off, so
    // the hot shard keeps its backlog and the idle cool shards must pull
    // trains through the bounded handoff. With migrations on, the epoch-1
    // group moves spread the backlog across every shard and no shard is
    // ever idle at a barrier, so stealing would never fire.
    if (mode == "steal") {
      options.rebalance.max_migrations_per_epoch = 0;
      options.rebalance.steal = true;
    } else {
      options.rebalance.max_migrations_per_epoch = 8;
    }
  }

  SkewCell cell;
  cell.mode = mode;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    const core::ShardedRunResult sharded =
        core::SimulateSharded(workload, policy, options);
    const double ms = ElapsedMs(start);
    int64_t migrations = 0;
    int64_t steals = 0;
    for (const core::ShardRunStats& shard : sharded.shard_stats) {
      migrations += shard.migrations;
      steals += shard.steals;
    }
    if (rep == 0) {
      cell.wall_ms = ms;
      cell.tuples_emitted = sharded.result.qos.tuples_emitted;
      cell.avg_slowdown = sharded.result.qos.avg_slowdown;
      cell.load_imbalance = sharded.LoadImbalance();
      cell.migrations = migrations;
      cell.steals = steals;
    } else {
      AQSIOS_CHECK(sharded.result.qos.tuples_emitted == cell.tuples_emitted &&
                   sharded.result.qos.avg_slowdown == cell.avg_slowdown &&
                   migrations == cell.migrations && steals == cell.steals)
          << "repeated skew runs diverged in mode " << mode;
      cell.wall_ms = std::min(cell.wall_ms, ms);
    }
  }
  cell.tuples_per_wall_sec =
      cell.wall_ms > 0.0
          ? static_cast<double>(cell.tuples_emitted) / (cell.wall_ms / 1e3)
          : 0.0;
  return cell;
}

std::string SkewCellLine(const SkewCell& cell, int queries, int64_t arrivals,
                         int shards) {
  std::ostringstream os;
  os.precision(17);
  const double wall_ns = cell.wall_ms * 1e6;
  os << "    {\"name\": \"scaling/skew/" << cell.mode << "/q=" << queries
     << "/shards=" << shards << "\", \"ns_per_op\": "
     << wall_ns / static_cast<double>(std::max<int64_t>(arrivals, 1))
     << ", \"ops\": " << arrivals << ", \"wall_ms\": " << cell.wall_ms
     << ", \"tuples_per_wall_sec\": " << cell.tuples_per_wall_sec
     << ", \"load_imbalance\": " << cell.load_imbalance
     << ", \"avg_slowdown\": " << cell.avg_slowdown;
  if (cell.mode != "static") {
    os << ", \"migrations\": " << cell.migrations
       << ", \"steals\": " << cell.steals
       << ", \"speedup_vs_static\": " << cell.speedup_vs_static;
  }
  os << "}";
  return os.str();
}

bool IsBenchmarkLine(const std::string& line) {
  return line.rfind("    {\"name\": ", 0) == 0;
}

/// This bench owns both the scaling curve and the telemetry overhead pair.
bool IsScalingLine(const std::string& line) {
  return line.rfind("    {\"name\": \"scaling/", 0) == 0 ||
         line.rfind("    {\"name\": \"telemetry/", 0) == 0;
}

/// Splices the scaling cells into an aqsios-bench-perf/1 report: header and
/// non-scaling benchmark lines are kept verbatim, existing scaling/ lines are
/// replaced, and trailing commas are re-normalized. Falls back to writing a
/// fresh report when `path` is missing or not in the expected shape. Returns
/// false when `path` cannot be opened for writing.
bool WriteReport(const std::string& path, const std::vector<std::string>& cells,
                 int queries, int64_t arrivals, uint64_t seed, int reps,
                 double total_wall_ms) {
  std::vector<std::string> header;
  std::vector<std::string> kept;
  bool parsed = false;
  {
    std::ifstream in(path);
    if (in) {
      std::string line;
      bool in_benchmarks = false;
      while (std::getline(in, line)) {
        if (!in_benchmarks) {
          header.push_back(line);
          if (line == "  \"benchmarks\": [") {
            in_benchmarks = true;
            parsed = true;
          }
        } else if (IsBenchmarkLine(line)) {
          if (!IsScalingLine(line)) kept.push_back(line);
        }
        // Footer lines ("  ]", "}") and anything unexpected are re-emitted
        // from scratch below.
      }
    }
  }
  if (!parsed) {
    header.clear();
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"schema\": \"aqsios-bench-perf/1\",\n";
    os << "  \"queries\": " << queries << ",\n";
    os << "  \"arrivals\": " << arrivals << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"total_wall_ms\": " << total_wall_ms << ",\n";
    os << "  \"benchmarks\": [";
    std::string line;
    std::istringstream is(os.str());
    while (std::getline(is, line)) header.push_back(line);
  }

  // Re-normalize commas: strip, then re-add on all but the last line.
  for (std::string& line : kept) {
    if (!line.empty() && line.back() == ',') line.pop_back();
  }
  std::vector<std::string> body = kept;
  body.insert(body.end(), cells.begin(), cells.end());

  std::ofstream out(path);
  if (!out.good()) return false;
  for (const std::string& line : header) out << line << "\n";
  for (size_t i = 0; i < body.size(); ++i) {
    out << body[i] << (i + 1 < body.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_perf.json";
  int queries = 500;
  int64_t arrivals = 10000;
  int64_t seed = 42;
  int reps = 3;
  int threads = 0;
  bool quick = false;
  std::string metrics_out;
  std::string telemetry_jsonl;
  double telemetry_period_ms = 100.0;
  int metrics_port = -1;
  FlagSet flags("bench_scaling");
  flags.AddString("out", &out,
                  "perf report to splice the scaling cells into (empty = "
                  "stdout only)");
  flags.AddInt("queries", &queries, "registered CQs for the scaling cell");
  flags.AddInt("arrivals", &arrivals, "stream arrivals for the scaling cell");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddInt("reps", &reps, "repetitions per cell (min is reported)");
  flags.AddInt("threads", &threads,
               "shard worker threads (0 = one per hardware thread)");
  flags.AddBool("quick", &quick,
                "CI smoke mode: scaled-down cell, 1 rep, no speedup bar");
  flags.AddString("metrics-out", &metrics_out,
                  "OpenMetrics exposition file, atomically replaced every "
                  "sampler tick (empty = no live telemetry)");
  flags.AddString("telemetry-jsonl", &telemetry_jsonl,
                  "structured telemetry log (one JSON object per sample)");
  flags.AddDouble("telemetry-period-ms", &telemetry_period_ms,
                  "sampler period in wall milliseconds");
  flags.AddInt("metrics-port", &metrics_port,
               "serve /metrics on 127.0.0.1:<port> while sampling "
               "(0 = ephemeral, -1 = off)");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (flags.help_requested()) return 0;
    std::cerr << "bench_scaling: " << status << "\n" << flags.Usage();
    return 2;
  }
  if (quick) {
    reps = 1;
    queries = std::min(queries, 120);
    arrivals = std::min<int64_t>(arrivals, 2000);
  }

  const Clock::time_point suite_start = Clock::now();

  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.seed = static_cast<uint64_t>(seed);
  config.utilization = 0.9;
  const query::Workload workload = query::GenerateWorkload(config);
  const sched::PolicyConfig policy =
      sched::PolicyConfig::Of(sched::PolicyKind::kBsd);

  obs::TelemetryOptions live;
  live.metrics_out = metrics_out;
  live.jsonl_out = telemetry_jsonl;
  live.period_ms = telemetry_period_ms;
  live.http_port = metrics_port;
  const bool live_enabled =
      !metrics_out.empty() || !telemetry_jsonl.empty() || metrics_port >= 0;

  std::vector<ScalingCell> cells;
  for (const int shards : {1, 2, 4, 8}) {
    ScalingCell cell =
        RunCell(workload, policy, shards, threads, reps, live, live_enabled);
    cell.speedup_vs_shards1 =
        cells.empty() ? 1.0 : cells.front().wall_ms / cell.wall_ms;
    std::cout << "scaling/bsd/q=" << queries << "/shards=" << shards << ": "
              << cell.wall_ms << " ms, " << cell.tuples_per_wall_sec
              << " tuples/s, speedup " << cell.speedup_vs_shards1
              << "x, load imbalance " << cell.load_imbalance
              << ", avg slowdown " << cell.avg_slowdown << "\n";
    cells.push_back(cell);
  }

  if (!quick) {
    const ScalingCell& four = cells[2];
    AQSIOS_CHECK(four.shards == 4);
    AQSIOS_CHECK(four.speedup_vs_shards1 >= 2.5)
        << "shard-parallel runtime must clear 2.5x at 4 shards: got "
        << four.speedup_vs_shards1 << "x ("
        << cells.front().tuples_per_wall_sec << " -> "
        << four.tuples_per_wall_sec << " tuples/wall-sec)";
  }

  // Skewed cells: static hash placement vs the elastic rebalance controller
  // vs a stealing-only ablation on a workload whose hot sharing groups land
  // on one shard (docs/scaling.md). The cell gets its own query and arrival
  // budgets (the per-stream plan touches ~1 group per arrival, not all
  // queries, so it needs more arrivals to amortize setup, and twice the
  // queries so the hot shard carries a large ready set) and is calibrated
  // to 2.4x one engine's capacity: balanced that is a comfortable 0.6 per
  // shard, but the statically placed hot shard saturates — the regime the
  // controller and the stealing path exist for.
  const int skew_shards = 4;
  const int skew_queries = quick ? queries : queries * 2;
  const int64_t skew_arrivals = quick ? arrivals : arrivals * 40;
  int hot_groups = 0;
  const query::Workload skew_workload =
      MakeSkewWorkload(skew_queries, skew_arrivals, static_cast<uint64_t>(seed),
                       skew_shards, 2.4, &hot_groups);
  std::vector<SkewCell> skew_cells;
  for (const char* mode : {"static", "rebalance", "steal"}) {
    SkewCell cell =
        RunSkewCell(skew_workload, policy, skew_shards, threads, reps, mode);
    cell.speedup_vs_static = skew_cells.empty()
                                 ? 0.0
                                 : skew_cells.front().wall_ms / cell.wall_ms;
    std::cout << "scaling/skew/" << mode << "/q=" << skew_queries
              << "/shards=" << skew_shards << ": " << cell.wall_ms << " ms, "
              << cell.tuples_per_wall_sec << " tuples/s, load imbalance "
              << cell.load_imbalance << ", avg slowdown " << cell.avg_slowdown
              << ", migrations " << cell.migrations
              << ", steals " << cell.steals
              << (cell.mode == "static"
                      ? std::string()
                      : ", speedup vs static " +
                            std::to_string(cell.speedup_vs_static) + "x")
              << " (hot groups: " << hot_groups << ")\n";
    skew_cells.push_back(cell);
  }
  if (!quick) {
    const SkewCell& skew_static = skew_cells[0];
    const SkewCell& skew_rebalance = skew_cells[1];
    AQSIOS_CHECK(skew_rebalance.avg_slowdown <=
                 0.1 * skew_static.avg_slowdown)
        << "elastic rebalancing must cut the skewed cell's avg slowdown to "
           "at most 0.1x static: "
        << skew_static.avg_slowdown << " -> " << skew_rebalance.avg_slowdown;
    AQSIOS_CHECK(skew_rebalance.load_imbalance * 2.0 <=
                 skew_static.load_imbalance)
        << "elastic rebalancing must halve the skewed load imbalance: "
        << skew_static.load_imbalance << " -> "
        << skew_rebalance.load_imbalance;
  }

  // Sampler-overhead pairs: re-run the shards=4 cell bare and with an
  // aggressive 20 ms sampler (5x the operational default), alternating
  // which side of a pair runs first (no file/HTTP outputs — the cost
  // measured is snapshot reads + watchdog + exposition rendering, plus the
  // wakeup preemption that dominates on core-constrained hosts). One
  // overhead reading per pair; the cell reports their median and IQR, and
  // the perf gate (scripts/perf_compare.py) holds the median <= 2%.
  obs::TelemetryOptions aggressive;
  aggressive.period_ms = 20.0;
  const SamplerOverhead overhead = MeasureSamplerOverhead(
      workload, policy, 4, threads, quick ? 1 : 3 * reps, aggressive);
  std::cout << "telemetry/sampler q=" << queries << " shards=4: off "
            << overhead.off.wall_ms << " ms, on " << overhead.on.wall_ms
            << " ms (fastest), overhead median " << overhead.median_pct
            << "% IQR " << overhead.iqr_pct << "% over " << overhead.pairs
            << " pairs\n";

  std::vector<std::string> lines;
  for (const ScalingCell& cell : cells) {
    lines.push_back(CellLine(cell, queries, arrivals));
  }
  for (const SkewCell& cell : skew_cells) {
    lines.push_back(
        SkewCellLine(cell, skew_queries, skew_arrivals, skew_shards));
  }
  lines.push_back(OverheadLine(overhead, false, queries, arrivals));
  lines.push_back(OverheadLine(overhead, true, queries, arrivals));
  const double total_wall_ms = ElapsedMs(suite_start);
  if (!out.empty()) {
    if (!WriteReport(out, lines, queries, arrivals,
                     static_cast<uint64_t>(seed), reps, total_wall_ms)) {
      std::cerr << "bench_scaling: cannot write " << out << "\n";
      return 1;
    }
    std::cout << "spliced " << lines.size() << " scaling cells into " << out
              << "\n";
  } else {
    for (const std::string& line : lines) std::cout << line << "\n";
  }
  std::cout << "total: " << total_wall_ms << " ms\n";
  return 0;
}

}  // namespace
}  // namespace aqsios

int main(int argc, char** argv) { return aqsios::Main(argc, argv); }
