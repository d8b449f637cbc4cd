// Shared plumbing for the figure/table bench binaries.
//
// Each bench reproduces one table or figure of the paper: it runs the §8
// testbed workload (scaled down by default so every binary terminates in
// seconds on one core; scale up with --queries/--arrivals) and prints the
// same rows/series the paper reports, plus the paper's qualitative claim so
// the output is self-checking.

#ifndef AQSIOS_BENCH_BENCH_UTIL_H_
#define AQSIOS_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/sharded_dsms.h"
#include "obs/chrome_trace.h"
#include "obs/shard_trace.h"
#include "obs/tracer.h"

namespace aqsios::bench {

/// Standard workload knobs shared by all figure benches.
struct BenchArgs {
  int queries = 60;
  int64_t arrivals = 15000;
  uint64_t seed = 42;
  std::string utilizations = "0.5,0.7,0.8,0.9,0.95";
  /// Also emit the sweep as JSON (machine-readable, for plotting).
  bool json = false;
  /// Worker threads for RunSweep cells (0 = one per hardware thread,
  /// 1 = serial). Any value produces bit-identical results.
  int threads = 0;
  /// Replay arrivals from this aqsios-trace file (e.g. a converted
  /// LBL-PKT-4) instead of the synthetic On/Off process.
  std::string trace;
  /// Write a Chrome trace-event JSON of one traced simulation (the sweep's
  /// first utilization under its first policy) to this path; load it in
  /// Perfetto / chrome://tracing. Empty = no trace.
  std::string trace_out;
  /// Tuple-train batch size forwarded to SimulationOptions::batch_size:
  /// 1 = classic per-tuple dispatch, 0 = drain the picked queue, k > 1 =
  /// up to k tuples per scheduling decision.
  int batch = 1;
  /// Shards forwarded to SimulationOptions::shards: 1 = the classic
  /// single-scheduler runtime (byte-identical results); K > 1 = the
  /// shard-parallel runtime (docs/scaling.md).
  int shards = 1;

  std::vector<double> UtilizationList() const {
    std::vector<double> result;
    std::string token;
    for (char c : utilizations + ",") {
      if (c == ',') {
        if (!token.empty()) result.push_back(std::strtod(token.c_str(), nullptr));
        token.clear();
      } else {
        token += c;
      }
    }
    return result;
  }
};

/// Rejects scale knobs the simulator cannot run with, so a bad flag fails as
/// a usage error instead of aborting deep in the engine or silently falling
/// back to the single-engine path.
inline Status ValidateBenchArgs(const BenchArgs& args) {
  if (args.queries < 1) {
    return Status::InvalidArgument("--queries must be >= 1, got " +
                                   std::to_string(args.queries));
  }
  if (args.arrivals < 1) {
    return Status::InvalidArgument("--arrivals must be >= 1, got " +
                                   std::to_string(args.arrivals));
  }
  if (args.batch < 0) {
    return Status::InvalidArgument("--batch must be >= 0, got " +
                                   std::to_string(args.batch));
  }
  if (args.shards < 1) {
    return Status::InvalidArgument("--shards must be >= 1, got " +
                                   std::to_string(args.shards));
  }
  return Status::Ok();
}

/// Registers the standard flags and parses argv; exits on --help or error.
/// Callers may override the scale defaults (e.g. the clustering benches use
/// more queries so per-cluster amortization resembles the paper's 500-query
/// testbed).
inline BenchArgs ParseBenchArgs(const std::string& name, int argc,
                                const char* const* argv, FlagSet* flags,
                                int default_queries = 60,
                                int64_t default_arrivals = 15000) {
  static BenchArgs args;  // targets must outlive Parse
  args = BenchArgs();
  args.queries = default_queries;
  args.arrivals = default_arrivals;
  flags->AddInt("queries", &args.queries, "number of registered CQs");
  flags->AddInt("arrivals", &args.arrivals, "total stream arrivals");
  int64_t seed = 42;
  flags->AddInt("seed", &seed, "workload seed");
  flags->AddString("utils", &args.utilizations,
                   "comma-separated utilization sweep");
  flags->AddBool("json", &args.json, "also print the sweep as JSON");
  flags->AddInt("threads", &args.threads,
                "sweep worker threads (0 = all hardware threads, 1 = serial; "
                "results are identical for any value)");
  flags->AddString("trace", &args.trace,
                   "replay arrivals from this trace file (e.g. converted "
                   "LBL-PKT-4) instead of synthetic On/Off traffic");
  flags->AddString("trace-out", &args.trace_out,
                   "write a Chrome trace-event JSON (Perfetto-loadable) of "
                   "one traced run to this path");
  flags->AddInt("batch", &args.batch,
                "tuple-train batch size (1 = per-tuple dispatch, 0 = drain "
                "the picked queue, k > 1 = up to k tuples per decision)");
  flags->AddInt("shards", &args.shards,
                "scheduler shards (1 = classic single-scheduler runtime; "
                "K > 1 = partitioned shard-parallel runtime)");
  Status status = flags->Parse(argc, argv);
  if (status.ok()) status = ValidateBenchArgs(args);
  if (!status.ok()) {
    if (flags->help_requested()) std::exit(0);
    std::cerr << name << ": " << status << "\n" << flags->Usage();
    std::exit(2);
  }
  args.seed = static_cast<uint64_t>(seed);
  return args;
}

/// The paper's default single-stream testbed configuration.
inline query::WorkloadConfig TestbedConfig(const BenchArgs& args) {
  query::WorkloadConfig config;
  config.num_queries = args.queries;
  config.num_arrivals = args.arrivals;
  config.seed = args.seed;
  if (!args.trace.empty()) {
    config.arrival_pattern = query::ArrivalPattern::kTraceFile;
    config.trace_path = args.trace;
  }
  return config;
}

/// A SweepConfig pre-filled with the standard knobs (testbed workload,
/// utilization list, worker threads); callers add policies and options.
inline core::SweepConfig TestbedSweep(const BenchArgs& args) {
  core::SweepConfig sweep;
  sweep.workload = TestbedConfig(args);
  sweep.utilizations = args.UtilizationList();
  sweep.threads = args.threads;
  // Stage-attribute every 32nd arrival id: cheap (one modulo per emission),
  // deterministic, and the same tuples are sampled under every policy, so
  // the per-policy attribution blocks in the JSON reports are comparable.
  sweep.options.attribution_sample_every = 32;
  sweep.options.batch_size = args.batch;
  sweep.options.shards = args.shards;
  return sweep;
}

inline void PrintHeader(const std::string& title, const std::string& claim) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "paper claim: " << claim << "\n\n";
}

/// Emits the sweep as a JSON line when --json was passed.
inline void MaybePrintJson(const BenchArgs& args,
                           const std::vector<core::SweepCell>& cells) {
  if (!args.json) return;
  std::cout << "JSON: " << core::SweepToJson(cells) << "\n";
}

/// When --trace-out was passed, re-runs the sweep's (first utilization,
/// first policy) cell with an event tracer attached and writes the Chrome
/// trace-event JSON. Runs *after* the sweep so its results are untouched
/// (and identical whether or not a trace is requested — tracing is
/// observation-only).
inline void MaybeWriteTrace(const BenchArgs& args,
                            const core::SweepConfig& sweep) {
  if (args.trace_out.empty()) return;
  query::WorkloadConfig workload_config = sweep.workload;
  workload_config.utilization = sweep.utilizations.front();
  const query::Workload workload = query::GenerateWorkload(workload_config);

  core::SimulationOptions options = sweep.options;
  obs::ChromeTraceMeta meta;
  meta.num_queries = workload.plan.num_queries();
  meta.num_shards = options.shards > 1 ? options.shards : 1;
  Status status = Status::Ok();
  size_t kept = 0;
  size_t dropped = 0;
  if (options.shards > 1) {
    // Sharded runs need one private single-producer sink per shard; the
    // per-shard timelines are merged into one deterministic trace.
    std::vector<obs::EventTracer> tracers(
        static_cast<size_t>(options.shards));
    std::vector<obs::EventTracer*> tracer_ptrs;
    for (obs::EventTracer& tracer : tracers) tracer_ptrs.push_back(&tracer);
    const core::ShardedRunResult sharded = core::SimulateSharded(
        workload, sweep.policies.front(), options, &tracer_ptrs);
    meta.policy = sharded.result.policy_name;
    std::vector<obs::ShardTraceInput> inputs;
    for (size_t s = 0; s < tracers.size(); ++s) {
      inputs.push_back({&tracers[s], &sharded.query_id_maps[s]});
      kept += tracers[s].size();
      dropped += tracers[s].dropped();
    }
    status = obs::WriteChromeTrace(args.trace_out,
                                   obs::MergeShardTraces(inputs), meta);
  } else {
    obs::EventTracer tracer;
    options.tracer = &tracer;
    const core::RunResult result =
        core::Simulate(workload, sweep.policies.front(), options);
    meta.policy = result.policy_name;
    kept = tracer.size();
    dropped = tracer.dropped();
    status = obs::WriteChromeTrace(args.trace_out, tracer, meta);
  }
  if (!status.ok()) {
    std::cerr << "trace-out: " << status << "\n";
    std::exit(1);
  }
  std::cout << "wrote trace " << args.trace_out << " (" << kept
            << " events kept, " << dropped << " dropped, policy "
            << meta.policy << " at utilization "
            << sweep.utilizations.front() << ")\n";
}

/// Prints "<label>: <a> vs <b> (<percent>% lower)" comparisons used by the
/// self-check lines under each table.
inline void PrintReduction(const std::string& label, double ours,
                           double baseline) {
  const double percent =
      baseline > 0.0 ? (1.0 - ours / baseline) * 100.0 : 0.0;
  std::cout << label << ": " << ours << " vs " << baseline << "  ("
            << percent << "% lower)\n";
}

}  // namespace aqsios::bench

#endif  // AQSIOS_BENCH_BENCH_UTIL_H_
