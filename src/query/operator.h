// Operator descriptors for continuous-query plans.
//
// Following the paper's system model (§2), every operator is characterized by
// a processing cost c_x (time to process one input tuple) and a selectivity
// s_x (expected number of output tuples per processed input tuple).

#ifndef AQSIOS_QUERY_OPERATOR_H_
#define AQSIOS_QUERY_OPERATOR_H_

#include <string>

#include "common/sim_time.h"

namespace aqsios::query {

enum class OperatorKind {
  /// Predicate filter; selectivity in (0, 1].
  kSelect,
  /// Join with a stored relation (paper §8, single-stream experiments);
  /// behaves as a filter with selectivity in (0, 1].
  kStoredJoin,
  /// Time-based sliding-window symmetric hash join between two streams
  /// (§5); `selectivity` is the per-candidate-pair match probability and
  /// `window_seconds` the window interval V.
  kWindowJoin,
  /// Projection; selectivity 1.
  kProject,
};

const char* OperatorKindName(OperatorKind kind);

/// Static description of one operator.
struct OperatorSpec {
  OperatorKind kind = OperatorKind::kSelect;
  /// Processing cost c_x per input tuple, in milliseconds (paper units).
  double cost_ms = 1.0;
  /// Selectivity s_x: pass probability for filters, per-pair match
  /// probability for window joins. Filters require (0, 1]; window joins may
  /// exceed 1 only via window occupancy, not via this field.
  double selectivity = 1.0;
  /// Window interval V in seconds; meaningful for kWindowJoin only.
  /// Exactly one of window_seconds / window_rows must be positive.
  double window_seconds = 0.0;

  /// Tuple-count window: each side retains its last `window_rows` surviving
  /// tuples (CQL ROWS windows). Alternative to window_seconds.
  int64_t window_rows = 0;

  /// True when this window join is tuple-count based.
  bool is_row_window() const { return window_rows > 0; }

  /// The selectivity the operator actually exhibits at execution time; -1
  /// means "same as `selectivity`". When they differ, the optimizer's
  /// assumed statistics (`selectivity`, used for all priorities) are stale —
  /// the situation online calibration corrects (§10 discusses
  /// running in such dynamic environments).
  double actual_selectivity = -1.0;

  /// Execution-time selectivity (falls back to the assumed one).
  double EffectiveActualSelectivity() const {
    return actual_selectivity >= 0.0 ? actual_selectivity : selectivity;
  }

  /// Cost in SimTime seconds.
  SimTime cost() const { return MillisToSimTime(cost_ms); }

  std::string ToString() const;
};

/// Convenience constructors.
OperatorSpec MakeSelect(double cost_ms, double selectivity);
OperatorSpec MakeStoredJoin(double cost_ms, double selectivity);
OperatorSpec MakeProject(double cost_ms);
OperatorSpec MakeWindowJoin(double cost_ms, double match_probability,
                            double window_seconds);
OperatorSpec MakeRowWindowJoin(double cost_ms, double match_probability,
                               int64_t window_rows);

}  // namespace aqsios::query

#endif  // AQSIOS_QUERY_OPERATOR_H_
