// Test oracles: the naive O(n) scan pickers for LSF, exact BSD and clustered
// BSD (§6.2), the paper's reference implementation of each policy.
//
// Production answers every LSF / BSD / clustered-BSD pick from a
// sched::KineticIndex. These schedulers recompute every ready unit's (or
// non-empty cluster's) priority at each pick instead, keeping the first
// maximum under strict > while iterating a std::set in ascending order, and
// charge the same SchedulingCost the production schedulers charge. The
// equivalence tests require the production picks, priorities, charges and
// whole simulation results to match these bit for bit.
//
// SimulateWithScheduler runs one engine the way core::SimulatePlan does for
// a single shard, but with a caller-owned scheduler, so an oracle can drive a
// whole simulation.

#ifndef AQSIOS_TESTS_SCAN_SCHEDULERS_H_
#define AQSIOS_TESTS_SCAN_SCHEDULERS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/dsms.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "query/workload.h"
#include "sched/clustered_bsd.h"
#include "sched/clustering.h"
#include "sched/policy.h"
#include "sched/scheduler.h"

namespace aqsios::sched::oracle {

/// Readiness shared by the scan LSF and BSD: the ids of the units with
/// pending tuples, iterated in ascending order. Stats are read live at each
/// pick, so a stats refresh or calibration needs no bookkeeping.
class ScanReadySet : public Scheduler {
 public:
  void Attach(const UnitTable* units) override {
    units_ = units;
    ready_.clear();
  }
  void OnEnqueue(int unit) override {
    if ((*units_)[static_cast<size_t>(unit)].queue.size() == 1) {
      ready_.insert(unit);
    }
  }
  void OnDequeue(int unit) override {
    if ((*units_)[static_cast<size_t>(unit)].queue.empty()) ready_.erase(unit);
  }
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  void ResyncQueues(SimTime /*now*/) override {
    ready_.clear();
    for (const Unit& u : *units_) {
      if (u.has_pending()) ready_.insert(u.id);
    }
  }

 protected:
  const UnitTable* units_ = nullptr;
  std::set<int> ready_;
};

/// Longest Stretch First by scan: max W/T over the ready units.
class ScanLsfScheduler : public ScanReadySet {
 public:
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override {
    if (ready_.empty()) return false;
    int best = -1;
    double best_priority = -1.0;
    for (int unit : ready_) {
      const Unit& u = (*units_)[static_cast<size_t>(unit)];
      const double priority = u.HeadWait(now) / u.stats.ideal_time;
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
  const char* name() const override { return "LSF"; }
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.ideal_time > 0.0 ? 1.0 / unit.stats.ideal_time : 0.0;
  }
};

/// Exact BSD by scan: max Φ·W over the ready units. `count_all_units`
/// charges all q units per pick (§6.2's naive implementation), otherwise
/// only the ready ones.
class ScanBsdScheduler : public ScanReadySet {
 public:
  explicit ScanBsdScheduler(bool count_all_units = true)
      : count_all_units_(count_all_units) {}

  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override {
    if (ready_.empty()) return false;
    int best = -1;
    double best_priority = -1.0;
    for (int unit : ready_) {
      const Unit& u = (*units_)[static_cast<size_t>(unit)];
      const double priority = u.stats.phi * u.HeadWait(now);
      if (priority > best_priority) {
        best_priority = priority;
        best = unit;
      }
    }
    const int64_t ready_count = static_cast<int64_t>(ready_.size());
    const int64_t touched =
        count_all_units_ ? static_cast<int64_t>(units_->size()) : ready_count;
    cost->computations += touched;
    cost->comparisons += touched;
    cost->candidates = ready_count;
    cost->chosen_priority = best_priority;
    out->push_back(best);
    return true;
  }
  const char* name() const override { return "BSD"; }
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.phi;
  }

 private:
  bool count_all_units_;
};

/// Clustered BSD by scan: one FIFO per cluster, and each pick evaluates
/// pseudo priority × head wait of every non-empty cluster in (head time,
/// cluster id) order. Fagin's search (`use_fagin`) has no scan twin and is
/// refused.
class ScanClusteredBsdScheduler : public Scheduler {
 public:
  explicit ScanClusteredBsdScheduler(const ClusteredBsdOptions& options)
      : options_(options) {
    AQSIOS_CHECK(!options.use_fagin) << "the scan oracle has no Fagin twin";
    name_ = std::string("BSD-") +
            (options.clustering == ClusteringKind::kLogarithmic
                 ? "Logarithmic"
                 : "Uniform") +
            (options.clustered_processing ? "+CP" : "");
  }

  void Attach(const UnitTable* units) override {
    units_ = units;
    clustering_ =
        BuildClustering(*units, options_.clustering, options_.num_clusters);
    cluster_queues_.assign(static_cast<size_t>(clustering_.num_clusters), {});
    by_head_time_.clear();
  }

  // One shadow entry per queued tuple: like the production policy, the
  // oracle needs every delivered entry, not just readiness changes.
  bool WantsEveryEnqueue() const override { return true; }

  void OnEnqueue(int unit) override {
    const QueueEntry pushed = (*units_)[static_cast<size_t>(unit)].queue.back();
    const int cluster = clustering_.cluster_of_unit[static_cast<size_t>(unit)];
    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    if (queue.empty()) by_head_time_.insert({pushed.arrival_time, cluster});
    queue.push_back(Entry{unit, pushed.arrival, pushed.arrival_time});
  }

  void OnDequeue(int /*unit*/) override {}

  void OnBatchDequeue(int unit, int count) override {
    int remaining = count - 1;
    if (remaining == 0) return;
    const int cluster = clustering_.cluster_of_unit[static_cast<size_t>(unit)];
    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    if (!queue.empty()) {
      by_head_time_.erase({queue.front().arrival_time, cluster});
    }
    for (auto it = queue.begin(); it != queue.end() && remaining > 0;) {
      if (it->unit == unit) {
        it = queue.erase(it);
        --remaining;
      } else {
        ++it;
      }
    }
    AQSIOS_CHECK_EQ(remaining, 0);
    if (!queue.empty()) by_head_time_.insert({queue.front().arrival_time, cluster});
  }

  void ResyncQueues(SimTime /*now*/) override {
    for (auto& queue : cluster_queues_) queue.clear();
    by_head_time_.clear();
    RebuildQueues([](int) { return true; });
  }

  /// Re-buckets the units whose drifted Φ left their frozen range and
  /// rebuilds the FIFOs of the clusters that lost or gained a member.
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime /*now*/) override {
    std::vector<bool> affected(static_cast<size_t>(clustering_.num_clusters),
                               false);
    bool any = false;
    for (int unit : changed) {
      int& cluster = clustering_.cluster_of_unit[static_cast<size_t>(unit)];
      const int new_cluster = ClusterIndexFor(
          clustering_, (*units_)[static_cast<size_t>(unit)].stats.phi);
      if (new_cluster == cluster) continue;
      affected[static_cast<size_t>(cluster)] = true;
      affected[static_cast<size_t>(new_cluster)] = true;
      cluster = new_cluster;
      any = true;
    }
    if (!any) return;
    for (int cluster = 0; cluster < clustering_.num_clusters; ++cluster) {
      if (!affected[static_cast<size_t>(cluster)]) continue;
      auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
      if (!queue.empty()) {
        by_head_time_.erase({queue.front().arrival_time, cluster});
      }
      queue.clear();
    }
    RebuildQueues(
        [&](int cluster) { return affected[static_cast<size_t>(cluster)]; });
  }

  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override {
    if (by_head_time_.empty()) return false;
    int cluster = -1;
    double best_priority = -1.0;
    for (const auto& [head_time, c] : by_head_time_) {
      const double priority =
          clustering_.pseudo_priority[static_cast<size_t>(c)] *
          (now - head_time);
      ++cost->computations;
      ++cost->comparisons;
      ++cost->candidates;
      if (priority > best_priority) {
        best_priority = priority;
        cluster = c;
      }
    }
    cost->chosen_priority = best_priority;

    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    by_head_time_.erase({queue.front().arrival_time, cluster});
    const stream::ArrivalId head_arrival = queue.front().arrival;
    out->push_back(queue.front().unit);
    queue.pop_front();
    if (options_.clustered_processing) {
      while (!queue.empty() && queue.front().arrival == head_arrival) {
        out->push_back(queue.front().unit);
        queue.pop_front();
      }
    }
    if (!queue.empty()) by_head_time_.insert({queue.front().arrival_time, cluster});
    return true;
  }

  const char* name() const override { return name_.c_str(); }
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.phi;
  }

 private:
  struct Entry {
    int unit = 0;
    stream::ArrivalId arrival = 0;
    SimTime arrival_time = 0.0;
  };

  /// Refills the (already emptied) FIFOs of the clusters `selected` accepts
  /// from the unit queues, in canonical (arrival index, unit id) order, and
  /// files their heads.
  template <typename Selected>
  void RebuildQueues(Selected selected) {
    for (const Unit& u : *units_) {
      const int cluster = clustering_.cluster_of_unit[static_cast<size_t>(u.id)];
      if (!selected(cluster)) continue;
      auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
      for (size_t i = 0; i < u.queue.size(); ++i) {
        const QueueEntry e = u.queue.at(i);
        queue.push_back(Entry{u.id, e.arrival, e.arrival_time});
      }
    }
    for (int cluster = 0; cluster < clustering_.num_clusters; ++cluster) {
      if (!selected(cluster)) continue;
      auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
      std::sort(queue.begin(), queue.end(),
                [](const Entry& a, const Entry& b) {
                  return a.arrival != b.arrival ? a.arrival < b.arrival
                                                : a.unit < b.unit;
                });
      if (!queue.empty()) {
        by_head_time_.insert({queue.front().arrival_time, cluster});
      }
    }
  }

  ClusteredBsdOptions options_;
  std::string name_;
  const UnitTable* units_ = nullptr;
  Clustering clustering_;
  std::vector<std::deque<Entry>> cluster_queues_;
  /// Non-empty clusters keyed by oldest-pending-arrival time.
  std::set<std::pair<SimTime, int>> by_head_time_;
};

/// One single-shard engine run of `workload` under `scheduler`, assembled
/// exactly as core::SimulatePlan assembles it for `policy` (which selects
/// the engine configuration, e.g. the sharing objective).
inline core::RunResult SimulateWithScheduler(
    const query::Workload& workload, const PolicyConfig& policy,
    const core::SimulationOptions& options, Scheduler* scheduler) {
  AQSIOS_CHECK(options.shards == 1 && !options.rebalance.enabled &&
               options.telemetry == nullptr);
  const exec::EngineConfig config = core::MakeEngineConfig(
      options, policy, workload.plan.MinOperatorCost());
  metrics::QosCollector collector(options.qos);
  exec::Engine engine(&workload.plan, &workload.arrivals, config, scheduler,
                      &collector);
  core::RunResult result;
  result.policy_name = scheduler->name();
  result.counters = engine.Run();
  result.qos = collector.Snapshot();
  result.qos.shed_count = result.counters.tuples_shed;
  result.qos.shed_ratio = result.counters.ShedRatio();
  return result;
}

}  // namespace aqsios::sched::oracle

#endif  // AQSIOS_TESTS_SCAN_SCHEDULERS_H_
