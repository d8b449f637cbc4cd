// Hand-rolled micro-benchmark suite for the scheduler and engine hot paths.
//
// Replaces the earlier google-benchmark harness with a dependency-free driver
// that writes a machine-readable report (default: BENCH_perf.json in the
// current directory — run from the repo root to refresh the tracked perf
// trajectory; compare two reports with scripts/perf_compare.py).
//
// Schema (aqsios-bench-perf/1):
//   {
//     "schema": "aqsios-bench-perf/1",
//     "queries": N, "arrivals": N, "seed": N, "reps": N,
//     "total_wall_ms": W,
//     "benchmarks": [
//       { "name": "pick/lsf/n=60", "ns_per_op": X,
//         "ops": N, "wall_ms": W }, ...
//     ]
//   }
// Each benchmark runs `reps` times and reports the fastest repetition
// (minimum is the standard noise-robust statistic for micro-benchmarks on a
// shared machine); ns_per_op = wall / ops of that repetition.
//
// The suite covers:
//  * pick/<policy>/n=<units> — steady-state PickNext churn against a
//    synthetic ready set. For LSF / BSD / clustered BSD, n=60 exercises the
//    kinetic index's dense small-n mode and n=500 its tournament tree. (The
//    index's equality with the naive scan is pinned by the ctest oracles in
//    tests/scan_schedulers.h, not here.)
//  * deliver/leaves=<L>[/shed] — arrival delivery alone: an engine whose
//    scheduler never picks delivers a single-stream table to L leaf units,
//    every leaf backlogged, unshed or (/shed) held at the load-shedding cap
//    with every leaf sheddable. ns_per_op is per delivered arrival.
//  * queue/... — TupleQueue (inline ring buffer) vs std::deque on the
//    engine's shallow-queue churn pattern.
//  * join/insert_probe — symmetric-hash-join insert+probe path.
//  * histogram/add — obs::Histogram recording of continuous values (the
//    shape of slowdowns and busy times: no value repeats), so every Add
//    pays the full bucket lookup.
//  * sim/<policy>/q=<n> — full Simulate cells on the §8 testbed workload.
//    sim/hnr/q=2000 runs per-tuple HNR at 2000 queries, where each arrival
//    fans out to 2000 chain units: the per-dispatch fixed cost (pick,
//    delivery check, chain operators, emission) dominates.
//  * sim/<policy>/q=<n>/ov=on/batch=<k> — overhead-charged Simulate cells
//    across tuple-train batch sizes; each carries its deterministic virtual
//    throughput (tuples_per_vsec), and batch>=8 must clear 1.5x the batch=1
//    throughput for the overhead-paying policies (LSF/BSD) or the run
//    aborts.
//  * kernel/{scalar,columnar}/<policy>/q=<n>/ov=on/batch=32 — a train-bound
//    kernel-stress cell (deep fused select chains under sustained backlog,
//    see MakeKernelStressWorkload) executed with the scalar train pass vs
//    the columnar SoA kernels (docs/performance.md). Both serialized results
//    are checked for byte equality; each cell carries its wall-clock
//    tuples_per_wall_sec, and the columnar cell carries speedup_vs_scalar,
//    which scripts/perf_compare.py gates at >= 1.5x in CI.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/dsms.h"
#include "core/report.h"
#include "exec/engine.h"
#include "exec/window_join.h"
#include "obs/histogram.h"
#include "query/workload.h"
#include "sched/policy.h"
#include "sched/unit.h"

namespace aqsios {
namespace {

using Clock = std::chrono::steady_clock;

/// Compiler barrier standing in for benchmark::DoNotOptimize.
inline void KeepAlive(const void* p) { asm volatile("" : : "r"(p) : "memory"); }
inline void KeepAlive(int64_t v) { asm volatile("" : : "r"(v)); }

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct BenchResult {
  std::string name;
  double ns_per_op = 0.0;
  int64_t ops = 0;
  double wall_ms = 0.0;
  /// Virtual throughput (emitted tuples per simulated second) for the
  /// batched sim/ cells; 0 = not applicable, omitted from the JSON.
  /// Deterministic — a pure function of the simulation, not of the host.
  double tuples_per_vsec = 0.0;
  /// Wall-clock throughput (emitted tuples per second of host time, fastest
  /// repetition) for the kernel/ cells; 0 = not applicable, omitted.
  double tuples_per_wall_sec = 0.0;
  /// Columnar kernel/ cells only: wall-clock speedup over the paired scalar
  /// cell (scalar wall / columnar wall, fastest repetitions); 0 = not
  /// applicable, omitted. Gated by scripts/perf_compare.py.
  double speedup_vs_scalar = 0.0;
};

/// Runs `body` (which performs `ops` operations) `reps` times and keeps the
/// fastest repetition.
template <typename Body>
BenchResult RunTimed(const std::string& name, int64_t ops, int reps,
                     Body&& body) {
  BenchResult result;
  result.name = name;
  result.ops = ops;
  result.wall_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point start = Clock::now();
    body();
    const double ms = ElapsedMs(start);
    if (rep == 0 || ms < result.wall_ms) result.wall_ms = ms;
  }
  result.ns_per_op =
      result.wall_ms * 1e6 / static_cast<double>(std::max<int64_t>(ops, 1));
  std::cout << result.name << ": " << result.ns_per_op << " ns/op  ("
            << result.ops << " ops, " << result.wall_ms << " ms)\n";
  return result;
}

// ---------------------------------------------------------------------------
// PickNext churn.

sched::UnitTable MakeUnits(int n) {
  sched::UnitTable units;
  for (int i = 0; i < n; ++i) {
    sched::Unit unit;
    unit.id = i;
    unit.query = i;
    unit.input_stream = 0;
    const double phi = 1.0 + (i * 37 % 1000);
    unit.stats.phi = phi;
    unit.stats.output_rate = phi * 2.0;
    unit.stats.normalized_rate = phi * 1.5;
    unit.stats.ideal_time = 0.001 + 0.0001 * (i % 32);
    units.push_back(std::move(unit));
  }
  return units;
}

void FillQueues(sched::UnitTable& units, sched::Scheduler& scheduler) {
  for (size_t u = 0; u < units.size(); ++u) {
    units[u].queue.push_back(
        sched::QueueEntry{static_cast<int64_t>(u), 0.001 * static_cast<double>(u)});
    scheduler.OnEnqueue(static_cast<int>(u));
  }
}

/// Steady-state pick churn: pick, dequeue the picked units, immediately
/// re-enqueue them at the current clock. Returns a checksum of the pick
/// sequence, which keeps the picks observable to the optimizer.
uint64_t PickChurn(sched::Scheduler& scheduler, sched::UnitTable& units,
                   int64_t ops) {
  FillQueues(units, scheduler);
  SimTime now = 1.0;
  std::vector<int> out;
  sched::SchedulingCost cost;
  uint64_t checksum = 1469598103934665603ull;  // FNV offset basis
  for (int64_t i = 0; i < ops; ++i) {
    out.clear();
    cost.Clear();
    if (!scheduler.PickNext(now, &cost, &out)) {
      FillQueues(units, scheduler);
      continue;
    }
    for (int u : out) {
      checksum = (checksum ^ static_cast<uint64_t>(u)) * 1099511628211ull;
      units[static_cast<size_t>(u)].queue.pop_front();
      scheduler.OnDequeue(u);
    }
    for (int u : out) {
      units[static_cast<size_t>(u)].queue.push_back(sched::QueueEntry{i, now});
      scheduler.OnEnqueue(u);
    }
    now += 1e-6;
    KeepAlive(out.data());
  }
  return checksum;
}

sched::PolicyConfig PickPolicy(const std::string& policy) {
  sched::PolicyConfig config;
  if (policy == "lsf") {
    config = sched::PolicyConfig::Of(sched::PolicyKind::kLsf);
  } else if (policy == "bsd") {
    config = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
  } else if (policy == "bsd-clustered") {
    config = sched::PolicyConfig::Of(sched::PolicyKind::kBsdClustered);
    config.clustered.num_clusters = 12;
  } else if (policy == "rr") {
    config = sched::PolicyConfig::Of(sched::PolicyKind::kRoundRobin);
  } else if (policy == "hnr") {
    config = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
  } else {
    AQSIOS_CHECK(false) << "unknown pick policy " << policy;
  }
  return config;
}

/// Benchmarks PickNext churn for one (policy, n) cell.
void BenchPick(const std::string& policy, int n, int64_t ops, int reps,
               std::vector<BenchResult>* results) {
  std::ostringstream name;
  name << "pick/" << policy << "/n=" << n;
  results->push_back(RunTimed(name.str(), ops, reps, [&] {
    sched::UnitTable units = MakeUnits(n);
    auto scheduler = sched::CreateScheduler(PickPolicy(policy));
    scheduler->Attach(&units);
    KeepAlive(static_cast<int64_t>(PickChurn(*scheduler, units, ops)));
  }));
}

// ---------------------------------------------------------------------------
// Arrival delivery.

/// A scheduler that never picks: the engine's run loop then only jumps from
/// arrival to arrival delivering, and every leaf stays backlogged.
class NeverPickScheduler : public sched::Scheduler {
 public:
  void Attach(const sched::UnitTable* /*units*/) override {}
  void OnEnqueue(int /*unit*/) override { ++enqueues; }
  void OnDequeue(int /*unit*/) override {}
  bool PickNext(SimTime /*now*/, sched::SchedulingCost* /*cost*/,
                std::vector<int>* /*out*/) override {
    return false;
  }
  const char* name() const override { return "never"; }
  void ResyncQueues(SimTime /*now*/) override {}

  int64_t enqueues = 0;
};

/// `leaves` one-select queries on one stream and `arrivals` evenly spaced
/// arrivals.
query::Workload MakeDeliveryWorkload(int leaves, int64_t arrivals) {
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(static_cast<size_t>(leaves));
  for (int qi = 0; qi < leaves; ++qi) {
    query::QuerySpec spec;
    spec.id = qi;
    spec.left_stream = 0;
    spec.left_ops.push_back(
        query::MakeSelect(0.001 * static_cast<double>(1 + qi % 4), 0.5));
    compiled.emplace_back(std::move(spec),
                          query::SelectivityMode::kCorrelatedAttribute);
  }
  query::Workload workload;
  workload.plan = query::GlobalPlan(std::move(compiled), {}, /*num_streams=*/1);
  workload.arrivals.arrivals.resize(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    stream::Arrival& arrival =
        workload.arrivals.arrivals[static_cast<size_t>(i)];
    arrival.id = i;
    arrival.time = 1e-3 * static_cast<double>(i);
    arrival.attribute = 50.0;
  }
  return workload;
}

/// Times Engine::Run (construction excluded) over the delivery workload,
/// fastest of `reps`, and checks every (arrival, leaf) pair was accounted
/// for: enqueued, or shed once the queued population reached the cap.
void BenchDeliver(int leaves, bool shed, int64_t arrivals, int reps,
                  std::vector<BenchResult>* results) {
  const query::Workload workload = MakeDeliveryWorkload(leaves, arrivals);
  exec::EngineConfig config;
  if (shed) {
    config.shed.enabled = true;
    config.shed.shed_fraction = 1.0;
    // Reached inside the first arrivals' leaf loops; from then on every
    // delivery sheds all of its leaves.
    config.shed.queue_cap = 3 * leaves / 2;
  }
  BenchResult result;
  result.name = "deliver/leaves=" + std::to_string(leaves) +
                (shed ? "/shed" : "");
  result.ops = arrivals;
  for (int rep = 0; rep < reps; ++rep) {
    NeverPickScheduler scheduler;
    exec::Engine engine(&workload.plan, &workload.arrivals, config,
                        &scheduler, /*collector=*/nullptr);
    const Clock::time_point start = Clock::now();
    const exec::RunCounters counters = engine.Run();
    const double ms = ElapsedMs(start);
    if (rep == 0 || ms < result.wall_ms) result.wall_ms = ms;
    const int64_t pairs = arrivals * leaves;
    if (shed) {
      AQSIOS_CHECK_EQ(counters.peak_queued_tuples, config.shed.queue_cap);
      AQSIOS_CHECK_EQ(counters.tuples_shed, pairs - config.shed.queue_cap);
    } else {
      AQSIOS_CHECK_EQ(counters.peak_queued_tuples, pairs);
    }
    // Only readiness changes reach the scheduler: each leaf once.
    AQSIOS_CHECK_EQ(scheduler.enqueues, leaves);
  }
  result.ns_per_op = result.wall_ms * 1e6 / static_cast<double>(arrivals);
  std::cout << result.name << ": " << result.ns_per_op << " ns/op  ("
            << result.ops << " ops, " << result.wall_ms << " ms)\n";
  results->push_back(result);
}

// ---------------------------------------------------------------------------
// TupleQueue vs std::deque.

/// The engine's dominant queue pattern: queues hover near-empty (depth 1-3)
/// with occasional bursts. Both containers run the identical sequence.
template <typename Queue>
int64_t QueueChurn(int64_t ops) {
  Queue queue;
  int64_t alive = 0;
  int64_t sink = 0;
  for (int64_t i = 0; i < ops; ++i) {
    queue.push_back(sched::QueueEntry{i, static_cast<double>(i)});
    ++alive;
    // Drain to depth (i % 4): mostly shallow, periodically deeper.
    const int64_t target = i % 4;
    while (alive > target) {
      sink += queue.front().arrival;
      queue.pop_front();
      --alive;
    }
  }
  return sink;
}

// ---------------------------------------------------------------------------
// Simulate cells.

core::RunResult SimCell(const query::Workload& workload,
                        const std::string& policy) {
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  return core::Simulate(workload, PickPolicy(policy), options);
}

/// Benchmarks one full-simulation cell.
void BenchSim(const query::Workload& workload, const std::string& policy,
              int queries, int reps, std::vector<BenchResult>* results) {
  std::ostringstream name;
  name << "sim/" << policy << "/q=" << queries;
  results->push_back(RunTimed(name.str(), 1, reps, [&] {
    const core::RunResult r = SimCell(workload, policy);
    KeepAlive(static_cast<int64_t>(r.qos.tuples_emitted));
  }));
}

// ---------------------------------------------------------------------------
// Batched sim cells (§9.2 overhead amortization).

core::RunResult BatchedSimCell(const query::Workload& workload,
                               const std::string& policy, int batch) {
  sched::PolicyConfig config = PickPolicy(policy);
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.charge_scheduling_overhead = true;
  options.batch_size = batch;
  return core::Simulate(workload, config, options);
}

/// Emitted tuples per simulated second — the virtual throughput the batched
/// dispatch improves by spending fewer virtual seconds on scheduling
/// decisions. Deterministic, so CHECKable (unlike wall time).
double VirtualThroughput(const core::RunResult& r) {
  return r.counters.end_time > 0.0
             ? static_cast<double>(r.qos.tuples_emitted) / r.counters.end_time
             : 0.0;
}

/// Benchmarks overhead-charged sim cells across tuple-train batch sizes.
/// For the dynamic-priority policies (nonzero per-decision overhead) the
/// amortization must show up in the virtual metrics: at batch=8 the cell
/// has to clear 1.5× the batch=1 virtual throughput or the suite aborts.
void BenchSimBatched(const query::Workload& workload,
                     const std::string& policy, int queries, int reps,
                     const std::vector<int>& batches,
                     std::vector<BenchResult>* results) {
  double base_throughput = 0.0;
  for (const int batch : batches) {
    const core::RunResult r = BatchedSimCell(workload, policy, batch);
    const double throughput = VirtualThroughput(r);
    if (batch == 1) {
      base_throughput = throughput;
    } else if (batch >= 8 && base_throughput > 0.0) {
      AQSIOS_CHECK(throughput >= 1.5 * base_throughput)
          << "batched dispatch must amortize " << policy
          << "'s scheduling overhead: batch=" << batch << " throughput "
          << throughput << " < 1.5x batch=1 throughput " << base_throughput;
    }
    std::ostringstream name;
    name << "sim/" << policy << "/q=" << queries << "/ov=on/batch=" << batch;
    BenchResult result = RunTimed(name.str(), 1, reps, [&] {
      const core::RunResult rep = BatchedSimCell(workload, policy, batch);
      KeepAlive(static_cast<int64_t>(rep.qos.tuples_emitted));
    });
    result.tuples_per_vsec = throughput;
    results->push_back(result);
  }
}

// ---------------------------------------------------------------------------
// Columnar kernel cells (scalar vs SoA train execution).

/// Builds the kernel cells' workload: deep fused select chains under
/// sustained backlog, so the tuple-train chain pass — the code the columnar
/// kernels replace — dominates the cell instead of the delivery/QoS floor
/// that the §8 testbed cells (3-op chains, utilization 0.9) spend most of
/// their wall-clock in. Each query is a 48-select correlated chain whose
/// selectivities step down from 0.98 to 0.15 in plateaus of four operators
/// (the scalar pass evaluates ~half the chain per tuple before the first
/// failing predicate; plateaus let the columnar reach kernel reuse its
/// prefix-min survivor counts), costs cycle through four cost classes, and
/// deterministic arrivals at 1.3x capacity keep every train at the full
/// batch size. Deterministic; byte-equality between the scalar and columnar
/// runs is asserted on it like on any workload.
query::Workload MakeKernelStressWorkload(int queries, int64_t arrivals) {
  constexpr int kChainOps = 48;
  constexpr int kPlateau = 4;
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(static_cast<size_t>(queries));
  for (int qi = 0; qi < queries; ++qi) {
    query::QuerySpec spec;
    spec.id = qi;
    spec.left_stream = 0;
    const double cost_ms = 0.002 * static_cast<double>(1 << (qi % 4));
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
  query::Workload workload;
  workload.selectivity_mode = query::SelectivityMode::kCorrelatedAttribute;
  workload.plan = query::GlobalPlan(std::move(compiled), {}, /*num_streams=*/1);
  const double interval = workload.plan.ExpectedWorkPerArrival(0) / 1.3;
  workload.expected_utilization = 1.3;
  Rng rng(7);
  workload.arrivals.arrivals.reserve(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    stream::Arrival arrival;
    arrival.id = i;
    arrival.stream = 0;
    arrival.time = interval * static_cast<double>(i);
    arrival.attribute = rng.Uniform(0.0, 100.0);
    workload.arrivals.arrivals.push_back(arrival);
  }
  return workload;
}

core::RunResult KernelSimCell(const query::Workload& workload,
                              const std::string& policy, bool columnar) {
  sched::PolicyConfig config = PickPolicy(policy);
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.charge_scheduling_overhead = true;
  options.batch_size = 32;
  options.use_columnar_kernels = columnar;
  return core::Simulate(workload, config, options);
}

/// Benchmarks one policy's batch=32 overhead-charged kernel-stress cell
/// under the scalar train pass and under the columnar SoA kernels. The two
/// serialized results must be byte-equal — the flag selects an execution
/// strategy, not semantics — and the columnar cell carries its wall-clock
/// speedup over the scalar cell for the CI kernel gate
/// (scripts/perf_compare.py).
void BenchKernel(const query::Workload& workload, const std::string& policy,
                 int queries, int reps, std::vector<BenchResult>* results) {
  const core::RunResult scalar = KernelSimCell(workload, policy, false);
  const core::RunResult columnar = KernelSimCell(workload, policy, true);
  AQSIOS_CHECK(core::RunResultToJson(scalar) ==
               core::RunResultToJson(columnar))
      << "columnar kernels changed " << policy << "'s serialized results";
  const double emitted = static_cast<double>(scalar.qos.tuples_emitted);
  std::ostringstream scalar_name;
  scalar_name << "kernel/scalar/" << policy << "/q=" << queries
              << "/ov=on/batch=32";
  BenchResult scalar_cell = RunTimed(scalar_name.str(), 1, reps, [&] {
    const core::RunResult r = KernelSimCell(workload, policy, false);
    KeepAlive(static_cast<int64_t>(r.qos.tuples_emitted));
  });
  std::ostringstream columnar_name;
  columnar_name << "kernel/columnar/" << policy << "/q=" << queries
                << "/ov=on/batch=32";
  BenchResult columnar_cell = RunTimed(columnar_name.str(), 1, reps, [&] {
    const core::RunResult r = KernelSimCell(workload, policy, true);
    KeepAlive(static_cast<int64_t>(r.qos.tuples_emitted));
  });
  scalar_cell.tuples_per_wall_sec = emitted / (scalar_cell.wall_ms * 1e-3);
  columnar_cell.tuples_per_wall_sec = emitted / (columnar_cell.wall_ms * 1e-3);
  columnar_cell.speedup_vs_scalar =
      scalar_cell.wall_ms / columnar_cell.wall_ms;
  std::cout << "kernel/" << policy << ": columnar speedup "
            << columnar_cell.speedup_vs_scalar << "x\n";
  results->push_back(scalar_cell);
  results->push_back(columnar_cell);
}

// ---------------------------------------------------------------------------

std::string ToJson(const std::vector<BenchResult>& results, int queries,
                   int64_t arrivals, uint64_t seed, int reps,
                   double total_wall_ms) {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"schema\": \"aqsios-bench-perf/1\",\n";
  os << "  \"queries\": " << queries << ",\n";
  os << "  \"arrivals\": " << arrivals << ",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"total_wall_ms\": " << total_wall_ms << ",\n";
  os << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"ns_per_op\": " << r.ns_per_op
       << ", \"ops\": " << r.ops << ", \"wall_ms\": " << r.wall_ms;
    if (r.tuples_per_vsec > 0.0) {
      os << ", \"tuples_per_vsec\": " << r.tuples_per_vsec;
    }
    if (r.tuples_per_wall_sec > 0.0) {
      os << ", \"tuples_per_wall_sec\": " << r.tuples_per_wall_sec;
    }
    if (r.speedup_vs_scalar > 0.0) {
      os << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar;
    }
    os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_perf.json";
  int queries = 60;
  int64_t arrivals = 15000;
  int64_t seed = 42;
  int reps = 3;
  bool quick = false;
  FlagSet flags("bench_micro_sched");
  flags.AddString("out", &out, "output JSON path (empty = stdout only)");
  flags.AddInt("queries", &queries, "queries for the sim/ cells");
  flags.AddInt("arrivals", &arrivals, "arrivals for the sim/ cells");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddInt("reps", &reps, "repetitions per benchmark (min is reported)");
  flags.AddBool("quick", &quick,
                "CI smoke mode: fewer ops/reps, skip the 500-query cells");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (flags.help_requested()) return 0;
    std::cerr << "bench_micro_sched: " << status << "\n" << flags.Usage();
    return 2;
  }
  if (quick) reps = 1;

  const Clock::time_point suite_start = Clock::now();
  std::vector<BenchResult> results;

  // PickNext churn keeps every unit ready: n=60 runs the kinetic index in
  // dense mode, n=500 in tournament-tree mode (the dense fast path holds at
  // most sched::KineticIndex::kDenseMaxCapacity = 128 live lines).
  // 3M ops keep every repetition above 50 ms (the fastest cell, RR at
  // n=60, takes ~20 ns a pick), well clear of timer and scheduling noise.
  const int64_t pick_ops = quick ? 20000 : 3000000;
  for (const int n : {60, 500}) {
    if (quick && n == 500) continue;
    for (const char* policy : {"lsf", "bsd", "bsd-clustered", "rr", "hnr"}) {
      BenchPick(policy, n, pick_ops, reps, &results);
    }
  }

  // Arrival delivery to every leaf of a stream, unshed and at the shed cap.
  const int64_t deliver_arrivals = quick ? 50000 : 1000000;
  for (const int leaves : {60, 500, 2000}) {
    for (const bool shed : {false, true}) {
      BenchDeliver(leaves, shed, deliver_arrivals, reps, &results);
    }
  }

  // TupleQueue vs std::deque on the engine's shallow-churn pattern.
  const int64_t queue_ops = quick ? 200000 : 2000000;
  const int64_t sink_tuple = QueueChurn<sched::TupleQueue>(queue_ops);
  const int64_t sink_deque = QueueChurn<std::deque<sched::QueueEntry>>(queue_ops);
  AQSIOS_CHECK(sink_tuple == sink_deque)
      << "TupleQueue and std::deque churn diverged";
  results.push_back(RunTimed("queue/tuple_queue/churn", queue_ops, reps, [&] {
    KeepAlive(QueueChurn<sched::TupleQueue>(queue_ops));
  }));
  results.push_back(RunTimed("queue/deque/churn", queue_ops, reps, [&] {
    KeepAlive(QueueChurn<std::deque<sched::QueueEntry>>(queue_ops));
  }));

  // Symmetric-hash-join insert+probe.
  const int64_t join_ops = quick ? 100000 : 1000000;
  results.push_back(RunTimed("join/insert_probe/keys=64", join_ops, reps, [&] {
    exec::SymmetricHashJoinState join(/*window=*/1.0);
    std::vector<exec::SymmetricHashJoinState::Entry> candidates;
    for (int64_t i = 0; i < join_ops; ++i) {
      exec::SymmetricHashJoinState::Entry entry;
      entry.id = i;
      entry.timestamp = 1e-4 * static_cast<double>(i);
      entry.arrival_time = entry.timestamp;
      const int32_t key = static_cast<int32_t>(i % 64);
      join.Insert(query::Side::kRight, key, entry);
      candidates.clear();
      join.Probe(query::Side::kLeft, key, entry.timestamp, &candidates);
      KeepAlive(candidates.data());
    }
  }));

  // Histogram recording of continuous, log-uniform values over the default
  // layout's range (1e-6 to 1e-6·2^40).
  const int64_t histogram_ops = quick ? 100000 : 1000000;
  std::vector<double> histogram_values;
  histogram_values.reserve(static_cast<size_t>(histogram_ops));
  Rng value_rng(static_cast<uint64_t>(seed));
  for (int64_t i = 0; i < histogram_ops; ++i) {
    histogram_values.push_back(1e-6 * std::exp2(value_rng.Uniform(0.0, 40.0)));
  }
  results.push_back(RunTimed("histogram/add", histogram_ops, reps, [&] {
    obs::Histogram histogram;
    for (const double value : histogram_values) histogram.Add(value);
    KeepAlive(histogram.count());
  }));

  // Full-simulation cells on the §8 testbed workload.
  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = quick ? std::min<int64_t>(arrivals, 3000) : arrivals;
  config.seed = static_cast<uint64_t>(seed);
  config.utilization = 0.9;
  const query::Workload workload = query::GenerateWorkload(config);
  for (const char* policy : {"lsf", "bsd", "bsd-clustered", "hnr"}) {
    BenchSim(workload, policy, queries, reps, &results);
  }

  // Tuple-train batching under §9.2 overhead charging. Only the
  // dynamic-priority policies (LSF, BSD) pay per-decision overhead, so only
  // they gain virtual throughput from amortizing it; the batch=8 cells must
  // clear 1.5x the batch=1 cells (checked inside BenchSimBatched).
  const std::vector<int> batches = quick ? std::vector<int>{1, 8}
                                         : std::vector<int>{1, 8, 32};
  BenchSimBatched(workload, "bsd", queries, reps, batches, &results);
  if (!quick) {
    BenchSimBatched(workload, "lsf", queries, reps, batches, &results);
  }

  // Scalar vs columnar train kernels at batch=32 on the train-bound
  // kernel-stress workload (docs/performance.md). Runs in quick mode too so
  // the CI smoke and sanitizer jobs execute the columnar path and its
  // byte-equality check.
  const query::Workload kernel_workload =
      MakeKernelStressWorkload(queries, quick ? 4000 : 15000);
  BenchKernel(kernel_workload, "lsf", queries, reps, &results);
  BenchKernel(kernel_workload, "bsd", queries, reps, &results);

  if (!quick) {
    // 500-query cells: the ready set is large enough that the kinetic index
    // answers from its tournament tree.
    query::WorkloadConfig big = config;
    big.num_queries = 500;
    big.num_arrivals = std::min<int64_t>(arrivals, 10000);
    const query::Workload big_workload = query::GenerateWorkload(big);
    BenchSim(big_workload, "bsd", 500, reps, &results);
    BenchSim(big_workload, "lsf", 500, reps, &results);

    // Per-tuple HNR at overload-admit's 2000 queries: each arrival becomes
    // 2000 dispatches, so the cell measures the fixed cost of one.
    query::WorkloadConfig wide = config;
    wide.num_queries = 2000;
    wide.num_arrivals = std::min<int64_t>(arrivals, 2000);
    BenchSim(query::GenerateWorkload(wide), "hnr", 2000, reps, &results);
  }

  const double total_wall_ms = ElapsedMs(suite_start);
  const std::string json = ToJson(results, queries, config.num_arrivals,
                                  static_cast<uint64_t>(seed), reps,
                                  total_wall_ms);
  if (!out.empty()) {
    std::ofstream file(out);
    file << json;
    std::cout << "wrote " << out << "\n";
  } else {
    std::cout << json;
  }
  std::cout << "total: " << total_wall_ms << " ms\n";
  return 0;
}

}  // namespace
}  // namespace aqsios

int main(int argc, char** argv) { return aqsios::Main(argc, argv); }
