// Per-tuple Quality-of-Service metric collection (paper §3–§4).
//
// For every tuple emitted at a query root, the engine records its response
// time R = D − A (Definition 1) and slowdown H (Definition 2 for
// single-stream tuples; §5.1.2 for composite tuples). The collector
// aggregates the average, maximum, and l2 norm (Definition 4), plus
// per-query-class statistics for the paper's Figure 11 analysis.

#ifndef AQSIOS_METRICS_QOS_H_
#define AQSIOS_METRICS_QOS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "metrics/timeline.h"
#include "obs/histogram.h"

namespace aqsios::metrics {

/// Identifies a query class: operator cost class (cost = K·2^i) and the
/// selectivity decile of the query's filter operators.
struct ClassKey {
  int cost_class = 0;
  /// Selectivity rounded to a decile: round(selectivity * 10).
  int selectivity_decile = 10;

  friend bool operator<(const ClassKey& a, const ClassKey& b) {
    if (a.cost_class != b.cost_class) return a.cost_class < b.cost_class;
    return a.selectivity_decile < b.selectivity_decile;
  }
  friend bool operator==(const ClassKey& a, const ClassKey& b) {
    return a.cost_class == b.cost_class &&
           a.selectivity_decile == b.selectivity_decile;
  }
};

ClassKey MakeClassKey(int cost_class, double selectivity);

/// The lowest slowdown an emission at virtual clock `now` can report for a
/// tuple with ideal processing time `ideal_time` whose path charged the
/// clock at most `path_charges` times. In exact arithmetic it is 1. The
/// clock is a double, though: each charge rounds it by up to half an ulp of
/// `now`, and the ideal departure (arrival + path cost) by half an ulp
/// more, so a tuple that never waited can read up to
/// (path_charges + 1) · ulp(now) / (2 · ideal_time) below 1. At t = 16 s a
/// 9.6e-7 s composite loses 3.7e-9 per ulp. The 1e-9 floor covers the
/// rounding of the ideal time itself, and is the bound wherever the clock
/// resolves finer than that.
double MinSlowdown(SimTime now, SimTime ideal_time, int path_charges);

/// One emitted tuple, recorded verbatim when Options::track_outputs is set.
/// The (query, arrival_time) pair identifies the tuple across runs of the
/// same workload, so golden-trace tests can compare per-tuple response times
/// between engine configurations rather than only aggregate moments.
struct OutputRecord {
  int32_t query = 0;
  SimTime arrival_time = 0.0;
  SimTime response = 0.0;
  double slowdown = 0.0;
};

/// Aggregated QoS results of one simulation run.
struct QosSnapshot {
  int64_t tuples_emitted = 0;

  /// Source tuples shed at admission (QoS-aware load shedding,
  /// exec::ShedConfig). Shed tuples never reach the collector, so every
  /// response/slowdown statistic below is over *delivered* tuples only;
  /// these two report the loss explicitly. Both stay zero — and the report
  /// writer omits them — when shedding is disabled. Filled by the
  /// simulation entry points (core/dsms.cc) from the run counters: the
  /// collector itself never sees shed tuples, by design.
  int64_t shed_count = 0;
  double shed_ratio = 0.0;

  double avg_response = 0.0;  // seconds
  double max_response = 0.0;
  double avg_slowdown = 0.0;
  double max_slowdown = 0.0;
  /// l2 norm of slowdowns, sqrt(Σ H²) (Definition 4).
  double l2_slowdown = 0.0;
  /// Root-mean-square slowdown, l2 / sqrt(N); comparable across runs with
  /// different output counts.
  double rms_slowdown = 0.0;

  /// Slowdown quantiles from a log-bucketed histogram (obs/histogram.h):
  /// deterministic — a pure function of the recorded slowdowns, identical
  /// across thread counts and unaffected by any sampling seed.
  double p50_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double p99_slowdown = 0.0;
  double p999_slowdown = 0.0;

  /// Per-class average slowdown, keyed by (cost class, selectivity decile).
  std::map<ClassKey, aqsios::RunningStats> per_class_slowdown;

  /// Per-query slowdown statistics (present when track_per_query is set).
  std::map<int32_t, aqsios::RunningStats> per_query_slowdown;

  /// Slowdown-over-virtual-time series (present when timeline_bucket > 0):
  /// per-bucket mean and max of the slowdowns of tuples *arriving* in the
  /// bucket, so series are comparable across policies.
  SimTime timeline_bucket = 0.0;
  std::vector<double> slowdown_timeline_mean;
  std::vector<double> slowdown_timeline_max;

  /// Every recorded output in emission order (present when track_outputs is
  /// set; empty otherwise). Memory grows with the output count — a test and
  /// debugging facility, not for sweep-scale runs.
  std::vector<OutputRecord> outputs;

  /// Jain's fairness index over the per-query mean slowdowns:
  /// (Σ x_i)² / (n · Σ x_i²) ∈ (0, 1]; 1 means every query experiences the
  /// same average slowdown. Captures the fairness dimension of §4 (LSF/BSD
  /// fair, HR/HNR biased). 0 when per-query tracking is off or empty.
  double JainFairnessIndex() const;

  std::string ToString() const;
};

/// Streaming collector; one per simulation run.
class QosCollector {
 public:
  struct Options {
    bool track_per_class = true;
    bool track_per_query = false;
    /// When > 0, collect the slowdown timeline with this bucket width
    /// (virtual seconds).
    SimTime timeline_bucket = 0.0;
    /// Bucket layout of the slowdown histogram behind the quantiles.
    /// Slowdowns are >= 1 by definition, so the first bucket edge sits at 1.
    obs::HistogramOptions slowdown_histogram{.min_value = 1.0};
    /// Outputs with arrival time before this are ignored (warm-up cut).
    SimTime warmup_until = 0.0;
    /// Keep every output tuple's (query, arrival, response, slowdown) in
    /// emission order for golden-trace comparisons (QosSnapshot::outputs).
    bool track_outputs = false;
  };

  QosCollector() : QosCollector(Options()) {}
  explicit QosCollector(const Options& options);

  /// Records one emitted tuple.
  void RecordOutput(int32_t query_id, int cost_class, double selectivity,
                    SimTime arrival_time, SimTime response, double slowdown);

  /// Merges a collector that recorded a disjoint subset of the run's
  /// outputs (one shard of a sharded simulation). `query_id_map[local]`
  /// translates the other collector's query ids into this collector's id
  /// space; pass an empty map for identity. Every aggregate merges exactly
  /// (histogram bucket counts add; RunningStats sums add; timeline buckets
  /// are keyed by arrival time), so merge-of-parts equals a single pass
  /// over the union — outputs_ alone is appended in merge-call order, not
  /// re-interleaved by emission time. Intended for merge-only collectors:
  /// do not RecordOutput on `this` after merging (the per-query class memo
  /// is not rebuilt).
  void MergeFrom(const QosCollector& other,
                 const std::vector<int32_t>& query_id_map);

  QosSnapshot Snapshot() const;

  int64_t tuples_emitted() const { return response_.count(); }

 private:
  Options options_;
  aqsios::RunningStats response_;
  aqsios::RunningStats slowdown_;
  obs::Histogram slowdown_histogram_;
  std::map<ClassKey, aqsios::RunningStats> per_class_slowdown_;
  /// Per-query shortcut into per_class_slowdown_. A query's (cost class,
  /// selectivity) — and hence its ClassKey — never changes mid-run, and
  /// std::map nodes are address-stable, so after the first emission each
  /// query points straight at its class accumulator instead of walking the
  /// map on every output tuple.
  std::vector<aqsios::RunningStats*> per_class_memo_;
  std::map<int32_t, aqsios::RunningStats> per_query_slowdown_;
  std::optional<TimelineCollector> timeline_;
  std::vector<OutputRecord> outputs_;
};

}  // namespace aqsios::metrics

#endif  // AQSIOS_METRICS_QOS_H_
