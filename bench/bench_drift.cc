// Statistics-drift benchmark: online calibration vs static priorities
// (docs/calibration.md, ROADMAP item 2).
//
// Runs a §8 testbed cell whose stream statistics *drift mid-run*: half the
// queries (ids with id % 2 == 0) ramp their per-tuple cost ×--cost-factor
// and their operator selectivities ×--selectivity-factor starting at 30% of
// the arrival span (stream/drift.h). The pre-drift utilization is low
// (default 0.3) so the post-drift system lands near saturation
// (0.3 × (1 + 5)/2 = 0.9 at the defaults): a static-priority scheduler
// keeps spending its budget by yesterday's cost model while the calibrated
// one re-keys the drifted units within a few epochs.
//
// Cells spliced into the aqsios-bench-perf/1 report (default:
// BENCH_perf.json — run from the repo root to refresh the tracked
// trajectory), for each policy in {lsf, bsd}:
//   "drift/static/<policy>/q=N"      — drift on, calibration off;
//   "drift/calibrated/<policy>/q=N"  — drift on, calibration on; carries
//       calibration_updates / calibration_rekeys / est_cost_drift /
//       est_sel_drift and p99_slowdown_vs_static (calibrated p99 ÷ static
//       p99 — scripts/perf_compare.py gates it at ≤ --max-drift-p99-ratio);
// plus a steady-state overhead pair (no drift, lsf):
//   "drift/steady/lsf/calibration=off" and "...=on" — the on cell carries
//       calibration_overhead_pct, the relative wall-clock cost of leaving
//       the calibrator running when nothing drifts: the median over
//       alternating off/on pairs (5 × --reps; the order flips every pair),
//       with calibration_overhead_iqr_pct and pairs beside it (gated
//       absolutely by perf_compare.py --max-calibration-overhead).
// Existing drift/ lines are replaced; every other benchmark line and the
// report header are preserved byte-for-byte.
//
// --metrics-out / --telemetry-jsonl / --metrics-port attach a live
// telemetry sampler to the first repetition of each cell; later repetitions
// run bare, so the determinism CHECK doubles as proof that sampling never
// perturbs results. Calibrated cells give the aqsios_calibration_* metric
// families non-zero samples (the CI smoke pins them with
// check_openmetrics.py --require).
//
// In full mode the suite aborts unless (a) repeated runs agree exactly —
// drift factors are pure functions of (query id, arrival time) and
// calibration epochs fire at deterministic virtual times, so calibrated
// runs are bit-reproducible — (b) every calibrated cell actually re-keyed
// units (the adaptation engaged), and (c) for every policy the calibrated
// p99 slowdown beats the static one by at least 1.5×. --quick runs a
// scaled-down cell as a CI/sanitizer smoke test and skips the (c) bar
// (tiny workloads make the margin noisy); --shards exercises the sharded
// runtime's per-shard drift-membership translation.

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
#include "core/dsms.h"
#include "obs/telemetry.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct PolicyUnderTest {
  const char* label;
  sched::PolicyKind kind;
};

// The two policies the acceptance gate names: LSF keys on waiting/ideal
// time, BSD on Φ — both go stale in opposite directions under cost drift.
constexpr PolicyUnderTest kPolicies[] = {
    {"lsf", sched::PolicyKind::kLsf},
    {"bsd", sched::PolicyKind::kBsd},
};

enum class CellKind { kDriftStatic, kDriftCalibrated, kSteadyOff, kSteadyOn };

struct DriftCell {
  CellKind kind = CellKind::kDriftStatic;
  std::string policy;
  double wall_ms = 0.0;  // fastest repetition
  int64_t ops = 0;       // arrivals driven through the run
  double p99_slowdown = 0.0;
  double avg_slowdown = 0.0;
  int64_t peak_queued_tuples = 0;
  int64_t tuples_emitted = 0;
  // Calibrated cells only.
  int64_t calibration_epochs = 0;
  int64_t calibration_updates = 0;
  int64_t calibration_rekeys = 0;
  double est_cost_drift = 0.0;
  double est_sel_drift = 0.0;
  double p99_slowdown_vs_static = 0.0;
  // Steady-state on cell only.
  double calibration_overhead_pct = 0.0;
  double calibration_overhead_iqr_pct = 0.0;
  int overhead_pairs = 0;
};

/// Live-telemetry wiring shared by all cells (docs/telemetry.md): sampler on
/// the first repetition only, so the repetition-determinism CHECK doubles as
/// proof that telemetry never perturbs results.
struct TelemetrySetup {
  obs::TelemetryOptions options;
  bool enabled = false;
};

template <typename Body>
void WithSampler(const TelemetrySetup& telemetry, obs::TelemetryHub* hub,
                 const std::string& policy_label, Body&& body) {
  obs::TelemetryMeta meta;
  meta.job = "bench_drift";
  meta.policy = policy_label;
  obs::TelemetrySampler sampler(hub, telemetry.options, meta);
  sampler.Start();
  body();
  sampler.Stop();
}

/// The virtual-result signature repeated runs must reproduce exactly.
struct CellSignature {
  int64_t tuples_emitted = 0;
  int64_t calibration_updates = 0;
  int64_t calibration_rekeys = 0;
  double p99_slowdown = 0.0;

  bool operator==(const CellSignature& other) const {
    return tuples_emitted == other.tuples_emitted &&
           calibration_updates == other.calibration_updates &&
           calibration_rekeys == other.calibration_rekeys &&
           p99_slowdown == other.p99_slowdown;
  }
};

struct RunOutcome {
  core::RunResult result;
  double wall_ms = 0.0;  // fastest repetition
};

/// `reps` timed runs of one configuration; fastest wall kept, virtual
/// results checked identical across repetitions.
RunOutcome TimedRuns(const query::Workload& workload,
                     const sched::PolicyConfig& policy,
                     const core::SimulationOptions& base_options,
                     const std::string& label, int reps,
                     const TelemetrySetup& telemetry) {
  core::SimulationOptions options = base_options;
  RunOutcome out;
  CellSignature first_sig;
  for (int rep = 0; rep < reps; ++rep) {
    core::RunResult result;
    const bool sampled = telemetry.enabled && rep == 0;
    const Clock::time_point start = Clock::now();
    if (sampled) {
      obs::TelemetryHub hub(options.shards);
      options.telemetry = &hub;
      WithSampler(telemetry, &hub, label, [&] {
        result = core::Simulate(workload, policy, options);
      });
      options.telemetry = nullptr;
    } else {
      result = core::Simulate(workload, policy, options);
    }
    const double ms = ElapsedMs(start);
    CellSignature sig;
    sig.tuples_emitted = result.qos.tuples_emitted;
    sig.calibration_updates = result.counters.calibration_updates;
    sig.calibration_rekeys = result.counters.calibration_rekeys;
    sig.p99_slowdown = result.qos.p99_slowdown;
    if (rep == 0) {
      first_sig = sig;
      out.result = std::move(result);
      out.wall_ms = ms;
    } else {
      AQSIOS_CHECK(sig == first_sig)
          << "repeated drift runs diverged at " << label;
      out.wall_ms = std::min(out.wall_ms, ms);
    }
  }
  return out;
}

/// Linear-interpolation quantile of `sorted` (ascending, non-empty).
double Quantile(const std::vector<double>& sorted, double q) {
  const double h = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(h);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The steady-state overhead measurement: `pairs` back-to-back (off, on)
/// runs, alternating which goes first, so host-speed drift over the
/// measurement lands on both sides. The overhead is read per pair; each
/// side keeps its fastest run, and every run of a side must reproduce its
/// first. The runs are bare: an attached sampler would be measured too.
struct CalibrationOverhead {
  RunOutcome off;
  RunOutcome on;
  double median_pct = 0.0;
  double iqr_pct = 0.0;
};

CalibrationOverhead MeasureCalibrationOverhead(
    const query::Workload& workload, const sched::PolicyConfig& policy,
    const core::SimulationOptions& off_options,
    const sched::CalibrationConfig& calibration, int pairs) {
  core::SimulationOptions options[2] = {off_options, off_options};
  options[1].calibration = calibration;
  const char* const labels[2] = {"lsf/steady-off", "lsf/steady-on"};
  CalibrationOverhead result;
  RunOutcome* const sides[2] = {&result.off, &result.on};
  std::vector<double> pct;
  for (int i = 0; i < pairs; ++i) {
    double ms[2] = {0.0, 0.0};
    for (const int on : {i % 2, 1 - i % 2}) {
      RunOutcome run = TimedRuns(workload, policy, options[on], labels[on],
                                 /*reps=*/1, TelemetrySetup{});
      ms[on] = run.wall_ms;
      RunOutcome& side = *sides[on];
      if (i == 0) {
        side = std::move(run);
      } else {
        AQSIOS_CHECK(run.result.qos.p99_slowdown ==
                         side.result.qos.p99_slowdown &&
                     run.result.counters.calibration_updates ==
                         side.result.counters.calibration_updates)
            << "repeated drift runs diverged at " << labels[on];
        side.wall_ms = std::min(side.wall_ms, run.wall_ms);
      }
    }
    pct.push_back(ms[0] > 0.0 ? (ms[1] - ms[0]) / ms[0] * 100.0 : 0.0);
  }
  std::sort(pct.begin(), pct.end());
  result.median_pct = Quantile(pct, 0.5);
  result.iqr_pct = Quantile(pct, 0.75) - Quantile(pct, 0.25);
  return result;
}

DriftCell MakeCell(CellKind kind, const std::string& policy,
                   const RunOutcome& run, int64_t arrivals) {
  DriftCell cell;
  cell.kind = kind;
  cell.policy = policy;
  cell.wall_ms = run.wall_ms;
  cell.ops = arrivals;
  cell.p99_slowdown = run.result.qos.p99_slowdown;
  cell.avg_slowdown = run.result.qos.avg_slowdown;
  cell.peak_queued_tuples = run.result.counters.peak_queued_tuples;
  cell.tuples_emitted = run.result.qos.tuples_emitted;
  cell.calibration_epochs = run.result.counters.adaptation_ticks;
  cell.calibration_updates = run.result.counters.calibration_updates;
  cell.calibration_rekeys = run.result.counters.calibration_rekeys;
  cell.est_cost_drift = run.result.counters.calibration_cost_drift;
  cell.est_sel_drift = run.result.counters.calibration_selectivity_drift;
  return cell;
}

std::string CellName(const DriftCell& cell, int queries) {
  std::ostringstream os;
  switch (cell.kind) {
    case CellKind::kDriftStatic:
      os << "drift/static/" << cell.policy << "/q=" << queries;
      break;
    case CellKind::kDriftCalibrated:
      os << "drift/calibrated/" << cell.policy << "/q=" << queries;
      break;
    case CellKind::kSteadyOff:
      os << "drift/steady/" << cell.policy << "/calibration=off";
      break;
    case CellKind::kSteadyOn:
      os << "drift/steady/" << cell.policy << "/calibration=on";
      break;
  }
  return os.str();
}

std::string CellLine(const DriftCell& cell, int queries) {
  std::ostringstream os;
  os.precision(17);
  const double wall_ns = cell.wall_ms * 1e6;
  os << "    {\"name\": \"" << CellName(cell, queries)
     << "\", \"ns_per_op\": "
     << wall_ns / static_cast<double>(std::max<int64_t>(cell.ops, 1))
     << ", \"ops\": " << cell.ops << ", \"wall_ms\": " << cell.wall_ms
     << ", \"p99_slowdown\": " << cell.p99_slowdown
     << ", \"avg_slowdown\": " << cell.avg_slowdown
     << ", \"peak_queued_tuples\": " << cell.peak_queued_tuples
     << ", \"tuples_emitted\": " << cell.tuples_emitted;
  if (cell.kind == CellKind::kDriftCalibrated ||
      cell.kind == CellKind::kSteadyOn) {
    os << ", \"calibration_epochs\": " << cell.calibration_epochs
       << ", \"calibration_updates\": " << cell.calibration_updates
       << ", \"calibration_rekeys\": " << cell.calibration_rekeys
       << ", \"est_cost_drift\": " << cell.est_cost_drift
       << ", \"est_sel_drift\": " << cell.est_sel_drift;
  }
  if (cell.kind == CellKind::kDriftCalibrated) {
    os << ", \"p99_slowdown_vs_static\": " << cell.p99_slowdown_vs_static;
  }
  if (cell.kind == CellKind::kSteadyOn) {
    os << ", \"calibration_overhead_pct\": " << cell.calibration_overhead_pct
       << ", \"calibration_overhead_iqr_pct\": "
       << cell.calibration_overhead_iqr_pct
       << ", \"pairs\": " << cell.overhead_pairs;
  }
  os << "}";
  return os.str();
}

bool IsBenchmarkLine(const std::string& line) {
  return line.rfind("    {\"name\": ", 0) == 0;
}

bool IsDriftLine(const std::string& line) {
  return line.rfind("    {\"name\": \"drift/", 0) == 0;
}

/// Splices the drift cells into an aqsios-bench-perf/1 report: header and
/// non-drift benchmark lines (micro benches, scaling, stress cells) are
/// kept verbatim, existing drift/ lines are replaced, trailing commas are
/// re-normalized. Falls back to a fresh report when `path` is missing or
/// not in the expected shape. Returns false when `path` cannot be written.
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
          if (!IsDriftLine(line)) kept.push_back(line);
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
  int queries = 100;
  int64_t arrivals = 12000;
  int64_t seed = 42;
  int reps = 2;
  double utilization = 0.3;
  double cost_factor = 5.0;
  double selectivity_factor = 0.7;
  int shards = 1;
  bool quick = false;
  std::string metrics_out;
  std::string telemetry_jsonl;
  double telemetry_period_ms = 100.0;
  int metrics_port = -1;
  FlagSet flags("bench_drift");
  flags.AddString("out", &out,
                  "perf report to splice the drift cells into (empty = "
                  "stdout only)");
  flags.AddInt("queries", &queries, "registered CQs for the drift cell");
  flags.AddInt("arrivals", &arrivals, "stream arrivals for the drift cell");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddInt("reps", &reps, "repetitions per cell (min is reported)");
  flags.AddDouble("utilization", &utilization,
                  "pre-drift target utilization (< 1; the drifted half "
                  "multiplies it toward saturation)");
  flags.AddDouble("cost-factor", &cost_factor,
                  "per-tuple cost multiplier the drifting queries ramp to");
  flags.AddDouble("selectivity-factor", &selectivity_factor,
                  "selectivity multiplier the drifting queries ramp to");
  flags.AddInt("shards", &shards,
               "shard-parallel runtime (1 = classic single scheduler); "
               "exercises the per-shard drift-membership translation");
  flags.AddBool("quick", &quick,
                "CI smoke mode: scaled-down cell, 1 rep, no p99 margin bar");
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
    std::cerr << "bench_drift: " << status << "\n" << flags.Usage();
    return 2;
  }
  if (quick) {
    reps = 1;
    queries = std::min(queries, 60);
    arrivals = std::min<int64_t>(arrivals, 4000);
  }
  AQSIOS_CHECK(utilization < 1.0)
      << "the drift scenario starts below saturation; the drifted half "
         "pushes it toward 1";
  AQSIOS_CHECK(cost_factor > 1.0)
      << "a drift benchmark without cost drift measures nothing";

  TelemetrySetup telemetry;
  telemetry.options.metrics_out = metrics_out;
  telemetry.options.jsonl_out = telemetry_jsonl;
  telemetry.options.period_ms = telemetry_period_ms;
  telemetry.options.http_port = metrics_port;
  telemetry.enabled =
      !metrics_out.empty() || !telemetry_jsonl.empty() || metrics_port >= 0;

  const Clock::time_point suite_start = Clock::now();

  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.seed = static_cast<uint64_t>(seed);
  config.utilization = utilization;
  const query::Workload workload = query::GenerateWorkload(config);
  const double span = workload.arrivals.arrivals.empty()
                          ? 1.0
                          : workload.arrivals.arrivals.back().time;

  // Half the queries ramp to cost_factor over [30%, 40%] of the span; the
  // post-drift utilization is utilization × (1 + cost_factor)/2 at the
  // defaults, close to saturation — exactly where mis-prioritization hurts.
  stream::DriftConfig drift;
  drift.enabled = true;
  drift.modulo = 2;
  drift.phase = 0;
  drift.cost_factor = cost_factor;
  drift.selectivity_factor = selectivity_factor;
  drift.step_time = 0.3 * span;
  drift.ramp_seconds = 0.1 * span;

  // ~200 epochs over the run: the calibrator reacts within a few percent of
  // the span while its epoch work stays negligible next to dispatching.
  sched::CalibrationConfig calibration;
  calibration.enabled = true;
  calibration.period = span / 200.0;

  std::cout << "drift testbed: " << queries << " queries, " << arrivals
            << " MMPP arrivals over " << span << " s, pre-drift utilization "
            << workload.expected_utilization << ", cost x" << cost_factor
            << " / selectivity x" << selectivity_factor
            << " ramp on half the queries at t=" << drift.step_time << "\n\n";

  std::vector<DriftCell> cells;
  for (const PolicyUnderTest& under_test : kPolicies) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(under_test.kind);

    core::SimulationOptions options;
    options.qos.track_per_class = false;
    options.shards = shards;
    options.drift = drift;
    const RunOutcome static_run =
        TimedRuns(workload, policy, options,
                  std::string(under_test.label) + "/static", reps, telemetry);
    AQSIOS_CHECK(static_run.result.counters.adaptation_ticks == 0);
    cells.push_back(MakeCell(CellKind::kDriftStatic, under_test.label,
                             static_run, arrivals));

    options.calibration = calibration;
    const RunOutcome calibrated_run = TimedRuns(
        workload, policy, options,
        std::string(under_test.label) + "/calibrated", reps, telemetry);
    cells.push_back(MakeCell(CellKind::kDriftCalibrated, under_test.label,
                             calibrated_run, arrivals));
    DriftCell& calibrated = cells.back();
    const DriftCell& static_cell = cells[cells.size() - 2];
    calibrated.p99_slowdown_vs_static =
        static_cell.p99_slowdown > 0.0
            ? calibrated.p99_slowdown / static_cell.p99_slowdown
            : 0.0;

    std::cout << CellName(static_cell, queries) << ": p99 slowdown "
              << static_cell.p99_slowdown << ", avg "
              << static_cell.avg_slowdown << ", " << static_cell.wall_ms
              << " ms\n";
    std::cout << CellName(calibrated, queries) << ": p99 slowdown "
              << calibrated.p99_slowdown << " ("
              << calibrated.p99_slowdown_vs_static << "x static), avg "
              << calibrated.avg_slowdown << ", "
              << calibrated.calibration_updates << " updates / "
              << calibrated.calibration_rekeys << " rekeys over "
              << calibrated.calibration_epochs << " epochs, est cost drift "
              << calibrated.est_cost_drift << ", " << calibrated.wall_ms
              << " ms\n";

    AQSIOS_CHECK(calibrated.calibration_rekeys > 0)
        << under_test.label
        << ": a drifting workload must re-key priorities — the calibration "
           "path never engaged";
    if (!quick) {
      AQSIOS_CHECK(calibrated.p99_slowdown * 1.5 <= static_cell.p99_slowdown)
          << under_test.label
          << ": calibration must beat static priorities on p99 slowdown by "
             ">=1.5x under drift (" << calibrated.p99_slowdown << " vs "
          << static_cell.p99_slowdown << ")";
    }
  }

  // Steady-state overhead pair: same workload, NO drift — the calibrator
  // runs, converges, and (past its hysteresis band) stops touching the
  // scheduler; the pairs isolate what that costs in wall clock.
  {
    core::SimulationOptions options;
    options.qos.track_per_class = false;
    options.shards = shards;
    const int pairs = quick ? 1 : 5 * reps;
    const CalibrationOverhead overhead = MeasureCalibrationOverhead(
        workload, sched::PolicyConfig::Of(sched::PolicyKind::kLsf), options,
        calibration, pairs);
    cells.push_back(
        MakeCell(CellKind::kSteadyOff, "lsf", overhead.off, arrivals));
    cells.push_back(MakeCell(CellKind::kSteadyOn, "lsf", overhead.on, arrivals));
    DriftCell& on_cell = cells.back();
    on_cell.calibration_overhead_pct = overhead.median_pct;
    on_cell.calibration_overhead_iqr_pct = overhead.iqr_pct;
    on_cell.overhead_pairs = pairs;
    std::cout << "\n" << CellName(on_cell, queries) << ": overhead median "
              << overhead.median_pct << "% IQR " << overhead.iqr_pct
              << "% over " << pairs << " pairs (fastest " << on_cell.wall_ms
              << " vs " << overhead.off.wall_ms << " ms)\n";
  }

  std::vector<std::string> lines;
  for (const DriftCell& cell : cells) {
    lines.push_back(CellLine(cell, queries));
  }
  const double total_wall_ms = ElapsedMs(suite_start);
  if (!out.empty()) {
    if (!WriteReport(out, lines, queries, arrivals,
                     static_cast<uint64_t>(seed), reps, total_wall_ms)) {
      std::cerr << "bench_drift: cannot write " << out << "\n";
      return 1;
    }
    std::cout << "spliced " << lines.size() << " drift cells into " << out
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
