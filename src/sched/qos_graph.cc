#include "sched/qos_graph.h"

#include <algorithm>

#include "common/check.h"

namespace aqsios::sched {

QosGraph::QosGraph(std::vector<std::pair<SimTime, double>> points)
    : points_(std::move(points)) {
  AQSIOS_CHECK(!points_.empty());
  for (size_t i = 1; i < points_.size(); ++i) {
    AQSIOS_CHECK_GT(points_[i].first, points_[i - 1].first)
        << "QoS graph latencies must be strictly increasing";
    AQSIOS_CHECK_LE(points_[i].second, points_[i - 1].second)
        << "QoS graph utility must be non-increasing";
  }
}

QosGraph QosGraph::FlatThenLinear(SimTime flat_until, SimTime zero_at) {
  AQSIOS_CHECK_GT(zero_at, flat_until);
  return QosGraph({{0.0, 1.0}, {flat_until, 1.0}, {zero_at, 0.0}});
}

double QosGraph::UtilityAt(SimTime latency) const {
  if (latency <= points_.front().first) return points_.front().second;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (latency <= points_[i].first) {
      const auto& [l0, u0] = points_[i - 1];
      const auto& [l1, u1] = points_[i];
      const double fraction = (latency - l0) / (l1 - l0);
      return u0 + fraction * (u1 - u0);
    }
  }
  return points_.back().second;
}

double QosGraph::DecayRateAt(SimTime latency) const {
  if (latency <= points_.front().first) return 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (latency <= points_[i].first) {
      const auto& [l0, u0] = points_[i - 1];
      const auto& [l1, u1] = points_[i];
      return (u0 - u1) / (l1 - l0);
    }
  }
  return 0.0;
}

QosGraphScheduler::QosGraphScheduler(const QosGraphOptions& options)
    : options_(options) {
  AQSIOS_CHECK_GT(options.flat_until_stretch, 0.0);
  AQSIOS_CHECK_GT(options.zero_at_stretch, options.flat_until_stretch);
}

void QosGraphScheduler::Attach(const UnitTable* units) {
  units_ = units;
  ready_.clear();
  graphs_.clear();
  graphs_.reserve(units->size());
  for (const Unit& unit : *units) {
    graphs_.push_back(QosGraph::FlatThenLinear(
        options_.flat_until_stretch * unit.stats.ideal_time,
        options_.zero_at_stretch * unit.stats.ideal_time));
  }
}

void QosGraphScheduler::OnEnqueue(int unit) {
  ready_.insert(unit);  // idempotent
}

void QosGraphScheduler::OnDequeue(int unit) {
  if ((*units_)[static_cast<size_t>(unit)].queue.empty()) {
    ready_.erase(unit);
  }
}

void QosGraphScheduler::ResyncQueues(SimTime /*now*/) {
  ready_.clear();
  for (const Unit& unit : *units_) {
    if (unit.has_pending()) ready_.insert(unit.id);
  }
}

double QosGraphScheduler::PriorityOf(const Unit& unit, SimTime now) const {
  // Utility preserved per second of processing: the head tuple's current
  // decay rate times the unit's output rate.
  return graphs_[static_cast<size_t>(unit.id)].DecayRateAt(
             unit.HeadWait(now)) *
         unit.stats.output_rate;
}

bool QosGraphScheduler::PickNext(SimTime now, SchedulingCost* cost,
                                 std::vector<int>* out) {
  if (ready_.empty()) return false;
  int best = -1;
  double best_priority = 0.0;
  int fallback = -1;
  double fallback_rate = -1.0;
  for (int unit_id : ready_) {
    const Unit& unit = (*units_)[static_cast<size_t>(unit_id)];
    const double priority = PriorityOf(unit, now);
    ++cost->computations;
    ++cost->comparisons;
    if (priority > best_priority) {
      best_priority = priority;
      best = unit_id;
    }
    // Nothing on a decaying segment (everything flat or already at zero
    // utility): fall back to the rate-based order, Aurora's inner level.
    if (unit.stats.output_rate > fallback_rate) {
      fallback_rate = unit.stats.output_rate;
      fallback = unit_id;
    }
  }
  cost->candidates = static_cast<int64_t>(ready_.size());
  cost->chosen_priority = best >= 0 ? best_priority : fallback_rate;
  out->push_back(best >= 0 ? best : fallback);
  return true;
}

}  // namespace aqsios::sched
