// Per-class admission control while routing to shards (overload survival).
//
// Under sustained overload routing would otherwise copy every arrival into
// every subscribed shard's sub-table and let the shard engines queue without
// bound. The admission controller is asked before each of those appends and
// enforces a per-window tuple budget, subdivided into *lanes*: one lane per
// (shard, dominant cost class) pair, where the dominant class of a (stream,
// shard) subscription is the query cost class contributing the most
// expected work per arrival of that stream on that shard (precomputed from
// the plan's assumed statistics). Budgets are reallocated at every window
// boundary, DRS-style (see PAPERS.md: Dynamic Resource Scheduling for
// Real-Time Analytics over Fast Streams): each lane's demand is tracked per
// window, smoothed by an EWMA, and the next window's budgets are split
// proportionally to the smoothed demands with a minimum-share floor — heavy
// lanes grow their allocation over a few windows, idle lanes decay toward
// the floor, and no lane starves.
//
// Determinism contract: decisions are a pure function of the admission
// config and the (shard, stream, time) call sequence — which
// sched::RouteArrivals derives from the global time-ordered arrival table
// alone in one sequential pass, so a capped sharded run is exactly
// repeatable.

#ifndef AQSIOS_SCHED_ADMISSION_H_
#define AQSIOS_SCHED_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "query/plan.h"
#include "sched/shard_router.h"
#include "stream/tuple.h"

namespace aqsios::sched {

struct AdmissionConfig {
  bool enabled = false;
  /// Total tuples admitted per window, summed over all lanes. <= 0 admits
  /// everything (demand is still tracked, nothing is ever dropped).
  int64_t tuples_per_window = 0;
  /// Budget window width in arrival (virtual) seconds.
  SimTime window_seconds = 1.0;
  /// EWMA smoothing factor for per-lane demand: ewma' = α·window_demand +
  /// (1-α)·ewma. Higher α reallocates faster.
  double ewma_alpha = 0.5;
  /// Minimum fraction of the total budget any lane keeps after
  /// reallocation (the DRS anti-starvation floor).
  double min_share = 0.02;
};

class AdmissionController {
 public:
  AdmissionController(const query::GlobalPlan& plan,
                      const ShardAssignment& assignment,
                      const AdmissionConfig& config);

  /// Admission decision for routing one arrival of `stream` at `time` to
  /// `shard`. Call with non-decreasing times (the router walks the
  /// time-ordered table); window boundaries crossed since the last call are
  /// rolled first. Returns false when the arrival's lane has exhausted its
  /// budget for the current window.
  bool Admit(int shard, stream::StreamId stream, SimTime time);

  /// Lane index of a (shard, stream) pair, or -1 when the shard has no
  /// subscription-induced work on the stream (exposed for tests).
  int LaneOf(int shard, stream::StreamId stream) const;

  int num_lanes() const { return static_cast<int>(class_of_lane_.size()); }
  /// Cost class a lane meters (exposed for tests and reports).
  int LaneClass(int lane) const {
    return class_of_lane_[static_cast<size_t>(lane)];
  }
  int LaneShard(int lane) const {
    return shard_of_lane_[static_cast<size_t>(lane)];
  }
  /// Current per-lane budgets (tuples per window).
  const std::vector<int64_t>& budgets() const { return budget_; }

  int64_t offered() const { return offered_; }
  int64_t dropped() const { return dropped_; }
  const std::vector<int64_t>& dropped_per_shard() const {
    return dropped_per_shard_;
  }

 private:
  /// Rolls every window boundary crossed up to `time`: folds the window's
  /// demand into the EWMAs and reallocates budgets.
  void RollWindows(SimTime time);
  /// Splits tuples_per_window across lanes proportional to EWMA demand with
  /// the min-share floor.
  void Reallocate();

  AdmissionConfig config_;
  int num_shards_ = 1;
  /// Lane of (stream, shard), or -1: stream * num_shards + shard.
  std::vector<int> lane_of_;
  std::vector<int> class_of_lane_;
  std::vector<int> shard_of_lane_;

  SimTime window_end_ = 0.0;
  std::vector<int64_t> demand_;    // offered this window, per lane
  std::vector<int64_t> admitted_;  // admitted this window, per lane
  std::vector<double> ewma_;       // smoothed per-window demand, per lane
  std::vector<int64_t> budget_;    // current allocation, per lane

  int64_t offered_ = 0;
  int64_t dropped_ = 0;
  std::vector<int64_t> dropped_per_shard_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_ADMISSION_H_
