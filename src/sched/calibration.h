// Online cost/selectivity estimation: §10's "monitoring the queries' costs
// and selectivities, and updating the priorities", and the engine's only
// statistics-refresh loop.
//
// Every policy keys its priority on the *assumed* plan statistics (C̄, S,
// T); under misestimated or drifting stream statistics those go stale and
// the schedulers optimize yesterday's workload. The CostCalibrator closes
// the loop:
//
//   * Per-unit exponentially-decayed counters accumulate the observed tuple
//     count, busy time, plan busy time and root emissions of every dispatch.
//     The hot-path tap (OnDispatch) is four adds — no branches beyond the
//     engine's single null-pointer check, no allocations.
//   * Every `period` virtual seconds an epoch fires: each unit with enough
//     decayed tuple mass re-estimates c_x = busy/tuples (per-tuple segment
//     cost) and s_x = emissions/tuples (segment selectivity) from the
//     decayed ratios — an exponentially-weighted average whose window is set
//     by `decay` — and, when an estimate moved by more than `rel_epsilon`
//     relative, rewrites the unit's UnitStats and re-derives the priority
//     fields. The ideal time is rescaled as T·busy/plan_busy: plan busy is
//     what the same operator invocations cost at the plan's operator costs,
//     so the ratio is the operators' cost drift alone. A selectivity change
//     moves c_x (a different number of tuples reaches the later operators)
//     but not T = Σ c_i, and it leaves the ratio at exactly 1.
//   * The changed set is handed to Scheduler::OnCalibratedStats, whose
//     kinetic implementations re-key only those units' priority lines
//     through the index's leaf-to-root path replay — O(log n) per affected
//     unit, never a full heap rebuild (tests pin KineticIndex::clears()).
//
// Epochs fire at deterministic virtual times and all estimator inputs are
// simulated quantities, so calibrated runs are bit-reproducible across
// repetitions and host machines. See docs/calibration.md.

#ifndef AQSIOS_SCHED_CALIBRATION_H_
#define AQSIOS_SCHED_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "sched/scheduler.h"
#include "sched/unit.h"

namespace aqsios::sched {

struct CalibrationConfig {
  bool enabled = false;
  /// Virtual time between calibration epochs (seconds).
  SimTime period = 0.25;
  /// Multiplier applied to every accumulator at each epoch; the estimator's
  /// effective memory is ~1/(1-decay) epochs.
  double decay = 0.5;
  /// Decayed tuple mass a unit needs before its ratios are trusted.
  double min_weight = 8.0;
  /// Minimum relative change of c_x or s_x before a unit's stats are
  /// rewritten and its priority line re-keyed (hysteresis: steady-state
  /// noise below this never touches the scheduler).
  double rel_epsilon = 0.01;
};

class CostCalibrator {
 public:
  /// `units` and `scheduler` must outlive the calibrator. The static stats
  /// in the unit table are captured as the calibration baseline.
  CostCalibrator(const CalibrationConfig& config, UnitTable* units,
                 Scheduler* scheduler);

  CostCalibrator(const CostCalibrator&) = delete;
  CostCalibrator& operator=(const CostCalibrator&) = delete;

  /// Hot-path tap: one dispatch of `unit` processed `tuples` queue entries,
  /// spent `busy` seconds, would have spent `plan_busy` seconds at the
  /// plan's operator costs, and emitted `emitted` root tuples. Covers the
  /// train and columnar execution paths uniformly (both maintain the engine
  /// counters these deltas come from).
  void OnDispatch(int unit, int64_t tuples, SimTime busy, SimTime plan_busy,
                  int64_t emitted) {
    Acc& acc = acc_[static_cast<size_t>(unit)];
    acc.tuples += static_cast<double>(tuples);
    acc.busy += busy;
    acc.plan_busy += plan_busy;
    acc.emitted += static_cast<double>(emitted);
  }

  /// Fires an epoch if `period` elapsed: refreshes estimates, rewrites the
  /// stats of units whose estimates moved, notifies the scheduler with the
  /// changed set, decays the accumulators. Returns true when an epoch fired.
  bool MaybeCalibrate(SimTime now);

  int64_t epochs() const { return epochs_; }
  /// Units whose stats were rewritten, summed over all epochs.
  int64_t updates() const { return updates_; }
  /// Rewritten units that had pending work at their epoch — exactly the
  /// per-unit priority re-keys the kinetic policies perform.
  int64_t rekeys() const { return rekeys_; }
  /// Units rewritten by the most recent epoch.
  int64_t last_updated_units() const { return last_updated_units_; }

  /// Current estimates (exposed for tests; before the first trusted epoch
  /// these are the static baselines).
  SimTime EstimatedCost(int unit) const {
    return estimated_cost_[static_cast<size_t>(unit)];
  }
  double EstimatedSelectivity(int unit) const {
    return estimated_selectivity_[static_cast<size_t>(unit)];
  }

  /// Mean |c_est/c_static - 1| over the units with a static cost > 0 as of
  /// the last epoch — the estimated-vs-static cost drift gauge exported via
  /// OpenMetrics.
  double MeanAbsCostDrift() const { return cost_drift_; }
  /// Mean |s_est/s_static - 1| over all units as of the last epoch.
  double MeanAbsSelectivityDrift() const { return selectivity_drift_; }

 private:
  struct Acc {
    double tuples = 0.0;
    SimTime busy = 0.0;
    SimTime plan_busy = 0.0;
    double emitted = 0.0;
  };
  struct Baseline {
    SimTime cost = 0.0;
    double selectivity = 1.0;
    SimTime ideal_time = 0.0;
  };

  CalibrationConfig config_;
  UnitTable* units_;
  Scheduler* scheduler_;
  std::vector<Acc> acc_;
  std::vector<Baseline> baseline_;
  std::vector<SimTime> estimated_cost_;
  std::vector<double> estimated_selectivity_;
  /// Epoch scratch (capacity reserved up front — the epoch path allocates
  /// nothing in steady state).
  std::vector<int> changed_;
  SimTime next_epoch_ = 0.0;
  int64_t epochs_ = 0;
  int64_t updates_ = 0;
  int64_t rekeys_ = 0;
  int64_t last_updated_units_ = 0;
  double cost_drift_ = 0.0;
  double selectivity_drift_ = 0.0;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_CALIBRATION_H_
