// The paper's evaluation testbed workload (§8).
//
// Generates (a) a registered set of select–join–project continuous queries
// with uniformly assigned selectivities and exponentially spaced cost
// classes K·2^i, and (b) a stream arrival table (bursty On/Off by default,
// Poisson for multi-stream experiments). The cost scaling factor K is
// calibrated so that
//
//   utilization = Σ_k E[work per arrival of query k] / mean inter-arrival,
//
// exactly as §8 prescribes.

#ifndef AQSIOS_QUERY_WORKLOAD_H_
#define AQSIOS_QUERY_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "query/plan.h"
#include "stream/arrival_process.h"
#include "stream/tuple.h"

namespace aqsios::query {

enum class ArrivalPattern {
  /// Bursty MMPP On/Off traffic (LBL-PKT-4 stand-in; single-stream default).
  kOnOff,
  /// Poisson arrivals (multi-stream experiments, §9.1.7).
  kPoisson,
  /// Fixed-interval arrivals (tests and calibration checks).
  kDeterministic,
  /// Replay timestamps from `trace_path` (aqsios-trace format; convert a
  /// real LBL-PKT-4 file with trace_tool). Multi-stream workloads replay
  /// the same trace on every stream with per-stream attribute/key draws.
  kTraceFile,
};

const char* ArrivalPatternName(ArrivalPattern pattern);

struct WorkloadConfig {
  /// Number of registered continuous queries (paper: 500).
  int num_queries = 50;

  /// Number of cost classes; class i has operator cost K·2^i ms.
  int num_cost_classes = 5;

  /// Selectivity range for select/join operators (paper: [0.1, 1.0]).
  double selectivity_min = 0.1;
  double selectivity_max = 1.0;
  /// Quantize selectivities to multiples of (max-min)/9 so query classes are
  /// well defined for the per-class analysis (Figure 11).
  bool quantize_selectivity = true;

  /// Target utilization (system load); drives the K calibration.
  double utilization = 0.9;

  /// Statistics staleness: when > 0, every query's filter operators exhibit
  /// an *actual* selectivity that deviates from the assumed one by a
  /// uniform factor in [1-m, 1+m] (clamped to (0.01, 1]). Priorities use
  /// the assumed values; execution and load calibration use the actual
  /// ones. Exercises online calibration (sched/calibration.h).
  double selectivity_misestimation = 0.0;

  uint64_t seed = 42;

  SelectivityMode selectivity_mode = SelectivityMode::kCorrelatedAttribute;

  /// If >= 2, queries are grouped into sets of this size, each set sharing
  /// its select operator (§9.3 uses 10). Only for single-stream workloads.
  int sharing_group_size = 0;

  /// Two-stream window-join workload (§9.1.7) instead of single-stream.
  bool multi_stream = false;
  /// Number of joined streams for multi-stream workloads (>= 2); streams
  /// beyond the second become left-deep extra join stages (§5.2's
  /// recursive multi-join case).
  int join_streams = 2;
  double window_min_seconds = 1.0;
  double window_max_seconds = 10.0;

  /// Total arrivals across all streams.
  int64_t num_arrivals = 20000;

  ArrivalPattern arrival_pattern = ArrivalPattern::kOnOff;
  /// Burst shape of the On/Off process (mean rate is taken as-is; the load
  /// knob is the cost scale K, not the arrival rate).
  stream::OnOffConfig onoff;
  /// Per-stream Poisson rate (arrivals/second) for kPoisson.
  double poisson_rate = 1000.0;
  /// Fixed inter-arrival (seconds) for kDeterministic.
  double deterministic_interval = 0.001;
  /// Trace file for kTraceFile (see stream/trace.h). num_arrivals caps how
  /// much of the trace is replayed.
  std::string trace_path;

  /// Number of distinct join keys for window joins.
  int32_t num_join_keys = 100;
};

/// A generated workload: the compiled plan (costs already scaled by the
/// calibrated K) plus the arrival table it was calibrated against.
struct Workload {
  GlobalPlan plan;
  stream::ArrivalTable arrivals;
  /// Calibrated scaling factor K, in milliseconds.
  double scale_factor_k_ms = 0.0;
  /// The achieved (expected) utilization given K; equals the target up to
  /// floating-point rounding.
  double expected_utilization = 0.0;
  SelectivityMode selectivity_mode = SelectivityMode::kCorrelatedAttribute;
};

/// Generates the §8 testbed workload. Deterministic in config.seed.
Workload GenerateWorkload(const WorkloadConfig& config);

}  // namespace aqsios::query

#endif  // AQSIOS_QUERY_WORKLOAD_H_
