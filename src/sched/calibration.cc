#include "sched/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aqsios::sched {

CostCalibrator::CostCalibrator(const CalibrationConfig& config,
                               UnitTable* units, Scheduler* scheduler)
    : config_(config), units_(units), scheduler_(scheduler) {
  AQSIOS_CHECK(units != nullptr);
  AQSIOS_CHECK(scheduler != nullptr);
  AQSIOS_CHECK_GT(config.period, 0.0);
  AQSIOS_CHECK_GT(config.decay, 0.0);
  AQSIOS_CHECK_LE(config.decay, 1.0);
  AQSIOS_CHECK_GT(config.min_weight, 0.0);
  AQSIOS_CHECK_GE(config.rel_epsilon, 0.0);
  acc_.resize(units->size());
  baseline_.reserve(units->size());
  estimated_cost_.reserve(units->size());
  estimated_selectivity_.reserve(units->size());
  for (const Unit& unit : *units) {
    baseline_.push_back(Baseline{unit.stats.expected_cost,
                                 unit.stats.selectivity,
                                 unit.stats.ideal_time});
    estimated_cost_.push_back(unit.stats.expected_cost);
    estimated_selectivity_.push_back(unit.stats.selectivity);
  }
  changed_.reserve(units->size());
  next_epoch_ = config.period;
}

bool CostCalibrator::MaybeCalibrate(SimTime now) {
  if (now < next_epoch_) return false;
  // Catch up in one epoch even if several periods elapsed while idle.
  while (next_epoch_ <= now) next_epoch_ += config_.period;
  ++epochs_;
  changed_.clear();

  double cost_drift_sum = 0.0;
  int64_t cost_drift_units = 0;
  double selectivity_drift_sum = 0.0;
  for (size_t u = 0; u < units_->size(); ++u) {
    Acc& acc = acc_[u];
    if (acc.tuples >= config_.min_weight) {
      // The decayed ratios: decay scales numerator and denominator alike, so
      // this is the exponentially-weighted average of the per-epoch
      // observations, floored so rate priorities stay finite (a unit
      // observed to emit nothing keeps a tiny positive rate).
      const SimTime cost = std::max(acc.busy / acc.tuples, 1e-9);
      const double selectivity = std::max(acc.emitted / acc.tuples, 1e-6);
      estimated_cost_[u] = cost;
      estimated_selectivity_[u] = selectivity;

      UnitStats& stats = (*units_)[u].stats;
      const bool cost_moved =
          std::abs(cost - stats.expected_cost) >
          config_.rel_epsilon * stats.expected_cost;
      const bool selectivity_moved =
          std::abs(selectivity - stats.selectivity) >
          config_.rel_epsilon * stats.selectivity;
      if (cost_moved || selectivity_moved) {
        const Baseline& base = baseline_[u];
        stats.expected_cost = cost;
        stats.selectivity = selectivity;
        // T = Σ c_i scales with the operators' cost drift: observed busy
        // over the plan cost of the same invocations. Reach changes cancel
        // out of that ratio (without drift it is exactly 1, so T stays
        // bit-equal); a plan cost of 0 gives no factor to scale by.
        stats.ideal_time = acc.plan_busy > 0.0
                               ? base.ideal_time * (acc.busy / acc.plan_busy)
                               : base.ideal_time;
        RederiveUnitStats(&stats);
        changed_.push_back(static_cast<int>(u));
        if ((*units_)[u].has_pending()) ++rekeys_;
      }
    }
    acc.tuples *= config_.decay;
    acc.busy *= config_.decay;
    acc.plan_busy *= config_.decay;
    acc.emitted *= config_.decay;

    // A unit with static cost 0 has no relative cost drift.
    if (baseline_[u].cost > 0.0) {
      cost_drift_sum +=
          std::abs(estimated_cost_[u] / baseline_[u].cost - 1.0);
      ++cost_drift_units;
    }
    selectivity_drift_sum +=
        std::abs(estimated_selectivity_[u] / baseline_[u].selectivity - 1.0);
  }
  const double n = static_cast<double>(units_->size());
  cost_drift_ = cost_drift_units > 0
                    ? cost_drift_sum / static_cast<double>(cost_drift_units)
                    : 0.0;
  selectivity_drift_ = n > 0.0 ? selectivity_drift_sum / n : 0.0;

  last_updated_units_ = static_cast<int64_t>(changed_.size());
  updates_ += last_updated_units_;
  if (!changed_.empty()) scheduler_->OnCalibratedStats(changed_, now);
  return true;
}

}  // namespace aqsios::sched
