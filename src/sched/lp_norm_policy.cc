#include "sched/lp_norm_policy.h"

#include <cmath>
#include <sstream>

#include "common/check.h"

namespace aqsios::sched {

LpNormScheduler::LpNormScheduler(double p) : p_(p) {
  AQSIOS_CHECK_GE(p, 1.0);
  std::ostringstream os;
  os << "L" << p << "-SD";
  name_ = os.str();
}

void LpNormScheduler::Attach(const UnitTable* units) {
  units_ = units;
  ready_.clear();
  OnStatsUpdated();
}

void LpNormScheduler::OnStatsUpdated() {
  static_priority_.clear();
  static_priority_.reserve(units_->size());
  for (const Unit& unit : *units_) {
    // S/(C̄·T^p) = normalized_rate / T^(p-1).
    static_priority_.push_back(unit.stats.normalized_rate /
                               std::pow(unit.stats.ideal_time, p_ - 1.0));
  }
}

double LpNormScheduler::ShedPriority(const Unit& unit) const {
  // Computed from stats (not static_priority_) so the shedder can rank
  // before Attach and after stats refreshes without ordering constraints.
  return unit.stats.normalized_rate /
         std::pow(unit.stats.ideal_time, p_ - 1.0);
}

double LpNormScheduler::PriorityOf(const Unit& unit, SimTime now) const {
  // V = S/(C̄·T^p) · W^(p-1), i.e. normalized rate × stretch^(p-1).
  return static_priority_[static_cast<size_t>(unit.id)] *
         std::pow(unit.HeadWait(now), p_ - 1.0);
}

void LpNormScheduler::OnEnqueue(int unit) {
  ready_.insert(unit);  // idempotent
}

void LpNormScheduler::OnDequeue(int unit) {
  if ((*units_)[static_cast<size_t>(unit)].queue.empty()) {
    ready_.erase(unit);
  }
}

void LpNormScheduler::ResyncQueues(SimTime /*now*/) {
  ready_.clear();
  for (const Unit& unit : *units_) {
    if (unit.has_pending()) ready_.insert(unit.id);
  }
}

bool LpNormScheduler::PickNext(SimTime now, SchedulingCost* cost,
                               std::vector<int>* out) {
  if (ready_.empty()) return false;
  int best = -1;
  double best_priority = -1.0;
  for (int unit : ready_) {
    const double priority =
        PriorityOf((*units_)[static_cast<size_t>(unit)], now);
    ++cost->computations;
    ++cost->comparisons;
    if (priority > best_priority) {
      best_priority = priority;
      best = unit;
    }
  }
  cost->candidates = static_cast<int64_t>(ready_.size());
  cost->chosen_priority = best_priority;
  out->push_back(best);
  return true;
}

}  // namespace aqsios::sched
