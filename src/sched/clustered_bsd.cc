#include "sched/clustered_bsd.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace aqsios::sched {

ClusteredBsdScheduler::ClusteredBsdScheduler(
    const ClusteredBsdOptions& options)
    : options_(options) {
  std::ostringstream os;
  os << "BSD-"
     << (options.clustering == ClusteringKind::kLogarithmic ? "Logarithmic"
                                                            : "Uniform");
  if (options.use_fagin) os << "+FA";
  if (options.clustered_processing) os << "+CP";
  name_ = os.str();
}

void ClusteredBsdScheduler::Attach(const UnitTable* units) {
  units_ = units;
  clustering_ =
      BuildClustering(*units, options_.clustering, options_.num_clusters);
  cluster_queues_.assign(
      static_cast<size_t>(clustering_.num_clusters), {});
  by_head_time_.clear();
  index_.Reserve(clustering_.num_clusters);
  seen_epoch_.assign(static_cast<size_t>(clustering_.num_clusters), 0);
  fagin_epoch_ = 0;
  cluster_affected_.assign(static_cast<size_t>(clustering_.num_clusters), 0);
  affected_clusters_.clear();
  affected_clusters_.reserve(static_cast<size_t>(clustering_.num_clusters));

  by_pseudo_priority_.resize(
      static_cast<size_t>(clustering_.num_clusters));
  std::iota(by_pseudo_priority_.begin(), by_pseudo_priority_.end(), 0);
  std::stable_sort(by_pseudo_priority_.begin(), by_pseudo_priority_.end(),
                   [this](int a, int b) {
                     return clustering_.pseudo_priority[static_cast<size_t>(
                                a)] >
                            clustering_.pseudo_priority[static_cast<size_t>(
                                b)];
                   });
}

void ClusteredBsdScheduler::KeyHead(int cluster) {
  const auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
  if (kinetic_active()) {
    if (queue.empty()) {
      index_.Erase(cluster);
    } else {
      // Insert on a present id re-keys in place: same line slope, new
      // anchor and tie key.
      index_.Insert(cluster, queue.front().arrival_time,
                    clustering_.pseudo_priority[static_cast<size_t>(cluster)],
                    /*tie_key=*/queue.front().arrival_time);
    }
  } else if (!queue.empty()) {
    by_head_time_.insert({queue.front().arrival_time, cluster});
  }
}

void ClusteredBsdScheduler::UnkeyHead(int cluster) {
  const auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
  if (!kinetic_active() && !queue.empty()) {
    by_head_time_.erase({queue.front().arrival_time, cluster});
  }
}

void ClusteredBsdScheduler::OnEnqueue(int unit) {
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  AQSIOS_DCHECK(!u.queue.empty());
  const QueueEntry pushed = u.queue.back();
  const int cluster = clustering_.cluster_of_unit[static_cast<size_t>(unit)];
  auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
  queue.push_back(Entry{unit, pushed.arrival, pushed.arrival_time});
  if (queue.size() == 1) KeyHead(cluster);
}

void ClusteredBsdScheduler::OnDequeue(int /*unit*/) {
  // Bookkeeping for scheduled entries already happened in PickNext.
}

void ClusteredBsdScheduler::OnBatchDequeue(int unit, int count) {
  // PickNext already retired this unit's head entry (and re-keyed the
  // cluster to its post-pop head). A train additionally consumed the unit's
  // next count-1 queue entries; their shadow entries — the unit's count-1
  // oldest remaining occurrences — may sit anywhere in the cluster FIFO, and
  // removing them can change the cluster head, so the head key is rebuilt
  // once after the sweep.
  int remaining = count - 1;
  if (remaining == 0) return;
  const int cluster = clustering_.cluster_of_unit[static_cast<size_t>(unit)];
  auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
  UnkeyHead(cluster);
  for (auto it = queue.begin(); it != queue.end() && remaining > 0;) {
    if (it->unit == unit) {
      it = queue.erase(it);
      --remaining;
    } else {
      ++it;
    }
  }
  AQSIOS_DCHECK_EQ(remaining, 0)
      << "cluster queue out of sync for unit " << unit;
  KeyHead(cluster);
}

void ClusteredBsdScheduler::ResyncQueues(SimTime /*now*/) {
  // Shadow FIFOs: one entry per queued tuple, merged per cluster in
  // (arrival index, unit id) order — the canonical interleaving, identical
  // to true enqueue order for the leaf queues this scheduler serves.
  for (auto& queue : cluster_queues_) queue.clear();
  for (const Unit& u : *units_) {
    auto& queue =
        cluster_queues_[static_cast<size_t>(
            clustering_.cluster_of_unit[static_cast<size_t>(u.id)])];
    for (size_t i = 0; i < u.queue.size(); ++i) {
      const QueueEntry e = u.queue.at(i);
      queue.push_back(Entry{u.id, e.arrival, e.arrival_time});
    }
  }
  by_head_time_.clear();
  if (kinetic_active()) index_.Clear();
  for (int cluster = 0; cluster < clustering_.num_clusters; ++cluster) {
    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    std::sort(queue.begin(), queue.end(), [](const Entry& a, const Entry& b) {
      return a.arrival != b.arrival ? a.arrival < b.arrival
                                    : a.unit < b.unit;
    });
    KeyHead(cluster);
  }
}

void ClusteredBsdScheduler::OnCalibratedStats(const std::vector<int>& changed,
                                              SimTime /*now*/) {
  // Re-bucket the units whose drifted Φ crossed a frozen range edge; note
  // which clusters lost or gained a member. Units still inside their range
  // cost one ClusterIndexFor each — the cluster's priority line depends only
  // on its (frozen) pseudo priority and head time, so nothing else moves.
  affected_clusters_.clear();
  for (int unit : changed) {
    const int old_cluster =
        clustering_.cluster_of_unit[static_cast<size_t>(unit)];
    const int new_cluster = ClusterIndexFor(
        clustering_, (*units_)[static_cast<size_t>(unit)].stats.phi);
    if (new_cluster == old_cluster) continue;
    clustering_.cluster_of_unit[static_cast<size_t>(unit)] = new_cluster;
    for (int cluster : {old_cluster, new_cluster}) {
      uint8_t& mark = cluster_affected_[static_cast<size_t>(cluster)];
      if (mark == 0) {
        mark = 1;
        affected_clusters_.push_back(cluster);
      }
    }
  }
  if (affected_clusters_.empty()) return;

  // Rebuild only the affected clusters' shadow FIFOs canonically (the
  // restricted ResyncQueues) and re-key each one's head line individually —
  // one O(log m) path replay per affected cluster, never a Clear.
  for (const int cluster : affected_clusters_) {
    UnkeyHead(cluster);
    cluster_queues_[static_cast<size_t>(cluster)].clear();
  }
  for (const Unit& u : *units_) {
    const int cluster =
        clustering_.cluster_of_unit[static_cast<size_t>(u.id)];
    if (cluster_affected_[static_cast<size_t>(cluster)] == 0) continue;
    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    for (size_t i = 0; i < u.queue.size(); ++i) {
      const QueueEntry e = u.queue.at(i);
      queue.push_back(Entry{u.id, e.arrival, e.arrival_time});
    }
  }
  for (const int cluster : affected_clusters_) {
    cluster_affected_[static_cast<size_t>(cluster)] = 0;
    auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
    std::sort(queue.begin(), queue.end(), [](const Entry& a, const Entry& b) {
      return a.arrival != b.arrival ? a.arrival < b.arrival
                                    : a.unit < b.unit;
    });
    KeyHead(cluster);
  }
}

int ClusteredBsdScheduler::SelectByFagin(SimTime now,
                                         SchedulingCost* cost) const {
  // List A: clusters in descending pseudo-priority order (skipping empty
  // ones). List B: non-empty clusters in descending head-wait order.
  // Alternate sorted accesses; each accessed cluster's full priority is
  // evaluated (the "random access" of the other attribute is a O(1) lookup).
  // Stop once the best seen priority is at least the threshold
  // pseudo(next unseen in A) × wait(next unseen in B).
  int best = -1;
  double best_priority = -1.0;

  ++fagin_epoch_;
  auto eval = [&](int cluster) {
    // A cluster reached through both lists is only evaluated once.
    int& seen = seen_epoch_[static_cast<size_t>(cluster)];
    if (seen == fagin_epoch_) return;
    seen = fagin_epoch_;
    const double priority =
        clustering_.pseudo_priority[static_cast<size_t>(cluster)] *
        (now - HeadTime(cluster));
    ++cost->computations;
    ++cost->comparisons;
    ++cost->candidates;
    if (priority > best_priority) {
      best_priority = priority;
      best = cluster;
    }
  };

  size_t ia = 0;  // position in by_pseudo_priority_
  auto ib = by_head_time_.begin();

  auto advance_a = [&]() -> int {
    while (ia < by_pseudo_priority_.size()) {
      const int cluster = by_pseudo_priority_[ia];
      if (!cluster_queues_[static_cast<size_t>(cluster)].empty()) {
        return cluster;
      }
      ++ia;
    }
    return -1;
  };

  while (true) {
    const int ca = advance_a();
    if (ca >= 0) {
      eval(ca);
      ++ia;
    }
    if (ib != by_head_time_.end()) {
      eval(ib->second);
      ++ib;
    }
    // Threshold from the next unseen positions.
    const int next_a = advance_a();
    const bool a_done = next_a < 0;
    const bool b_done = ib == by_head_time_.end();
    if (a_done && b_done) break;
    double threshold = 0.0;
    if (!a_done && !b_done) {
      threshold =
          clustering_.pseudo_priority[static_cast<size_t>(next_a)] *
          (now - ib->first);
    } else if (!a_done) {
      // B exhausted: every remaining cluster was already seen via B.
      break;
    } else {
      // A exhausted: every remaining cluster was already seen via A.
      break;
    }
    ++cost->comparisons;
    if (best_priority >= threshold) break;
  }
  cost->chosen_priority = best_priority;
  return best;
}

int ClusteredBsdScheduler::SelectByKinetic(SimTime now,
                                           SchedulingCost* cost) {
  // A linear scan touches every non-empty cluster, charging one computation,
  // one comparison, and one candidate each; the simulated charges model that
  // scan no matter how few nodes the index revalidated.
  double best_priority = -1.0;
  const int best = index_.ArgMax(now, &best_priority);
  const int64_t non_empty = index_.size();
  cost->computations += non_empty;
  cost->comparisons += non_empty;
  cost->candidates += non_empty;
  cost->chosen_priority = best_priority;
  return best;
}

bool ClusteredBsdScheduler::PickNext(SimTime now, SchedulingCost* cost,
                                     std::vector<int>* out) {
  const bool kinetic = kinetic_active();
  if (kinetic ? index_.empty() : by_head_time_.empty()) return false;
  const int cluster =
      kinetic ? SelectByKinetic(now, cost) : SelectByFagin(now, cost);
  AQSIOS_DCHECK_GE(cluster, 0);

  auto& queue = cluster_queues_[static_cast<size_t>(cluster)];
  AQSIOS_DCHECK(!queue.empty());
  UnkeyHead(cluster);

  const stream::ArrivalId head_arrival = queue.front().arrival;
  out->push_back(queue.front().unit);
  queue.pop_front();
  if (options_.clustered_processing) {
    // Execute every member of the cluster pending on the same head tuple.
    while (!queue.empty() && queue.front().arrival == head_arrival) {
      out->push_back(queue.front().unit);
      queue.pop_front();
    }
  }
  KeyHead(cluster);
  return true;
}

}  // namespace aqsios::sched
