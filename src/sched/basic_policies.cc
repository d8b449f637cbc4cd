#include "sched/basic_policies.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace aqsios::sched {

// --- FCFS -------------------------------------------------------------------

void FcfsScheduler::Attach(const UnitTable* units) {
  units_ = units;
  fifo_.clear();
}

void FcfsScheduler::OnEnqueue(int unit) { fifo_.push_back(unit); }

void FcfsScheduler::OnDequeue(int /*unit*/) {}

void FcfsScheduler::OnBatchDequeue(int unit, int count) {
  // PickNext already popped the head entry's fifo slot; the train consumed
  // this unit's next count-1 entries — its count-1 oldest remaining fifo
  // occurrences, because unit queues are FIFO.
  int remaining = count - 1;
  if (remaining == 0) return;
  for (auto it = fifo_.begin(); it != fifo_.end() && remaining > 0;) {
    if (*it == unit) {
      it = fifo_.erase(it);
      --remaining;
    } else {
      ++it;
    }
  }
  AQSIOS_DCHECK_EQ(remaining, 0) << "fifo out of sync for unit " << unit;
}

bool FcfsScheduler::PickNext(SimTime /*now*/, SchedulingCost* cost,
                             std::vector<int>* out) {
  // O(1) pop, no priority computations or comparisons: charges zero.
  if (fifo_.empty()) return false;
  cost->candidates = 1;
  out->push_back(fifo_.front());
  fifo_.pop_front();
  return true;
}

void FcfsScheduler::ResyncQueues(SimTime /*now*/) {
  // One fifo slot per queued entry, ordered by (arrival index, unit id):
  // the canonical interleaving. Leaf queues are arrival-ordered, so at
  // query-level scheduling this reproduces the true enqueue order.
  std::vector<std::pair<stream::ArrivalId, int>> slots;
  for (const Unit& u : *units_) {
    for (size_t i = 0; i < u.queue.size(); ++i) {
      slots.emplace_back(u.queue.at(i).arrival, u.id);
    }
  }
  std::sort(slots.begin(), slots.end());
  fifo_.clear();
  for (const auto& [arrival, unit] : slots) {
    (void)arrival;
    fifo_.push_back(unit);
  }
}

SchedulerState FcfsScheduler::ExportState() const {
  SchedulerState state;
  state.ints.assign(fifo_.begin(), fifo_.end());
  return state;
}

void FcfsScheduler::ImportState(const SchedulerState& state, SimTime /*now*/) {
  fifo_.assign(state.ints.begin(), state.ints.end());
}

// --- Round Robin -------------------------------------------------------------

void RoundRobinScheduler::Attach(const UnitTable* units) {
  units_ = units;
  ready_.Reset(static_cast<int>(units->size()));
  cursor_ = 0;
}

void RoundRobinScheduler::OnEnqueue(int unit) {
  // Idempotent: a unit that was already ready stays so.
  ready_.Insert(unit);
}

void RoundRobinScheduler::OnDequeue(int unit) {
  if ((*units_)[static_cast<size_t>(unit)].queue.empty()) {
    ready_.Erase(unit);
  }
}

bool RoundRobinScheduler::PickNext(SimTime /*now*/, SchedulingCost* cost,
                                   std::vector<int>* out) {
  // lower_bound-with-wraparound over the ordered ready set: the first ready
  // unit at or after the cursor is exactly the unit the modular cursor scan
  // would have stopped at. RR computes no priorities, so it charges zero
  // (the paper treats RR's decision overhead as negligible); `candidates`
  // still reports how many units the scan *would* have tested.
  const int n = static_cast<int>(units_->size());
  if (n == 0) return false;
  const int candidate = ready_.FirstCyclic(cursor_);
  if (candidate < 0) return false;
  const int step =
      candidate >= cursor_ ? candidate - cursor_ : candidate + n - cursor_;
  cursor_ = (candidate + 1) % n;
  cost->candidates = step + 1;
  out->push_back(candidate);
  return true;
}

void RoundRobinScheduler::ResyncQueues(SimTime /*now*/) {
  ready_.Reset(static_cast<int>(units_->size()));
  for (const Unit& u : *units_) {
    if (u.has_pending()) ready_.Insert(u.id);
  }
}

SchedulerState RoundRobinScheduler::ExportState() const {
  SchedulerState state;
  state.ints.push_back(cursor_);
  return state;
}

void RoundRobinScheduler::ImportState(const SchedulerState& state,
                                      SimTime now) {
  cursor_ = state.ints.empty() ? 0 : static_cast<int>(state.ints.front());
  ResyncQueues(now);
}

// --- Static priority family (SRPT / HR / HNR) --------------------------------

double StaticPriorityScheduler::PriorityOf(StaticPolicy policy,
                                           const Unit& unit) {
  switch (policy) {
    case StaticPolicy::kSrpt:
      return 1.0 / unit.stats.ideal_time;
    case StaticPolicy::kHr:
      return unit.stats.output_rate;
    case StaticPolicy::kHnr:
      return unit.stats.normalized_rate;
    case StaticPolicy::kChain:
      return unit.stats.chain_slope;
  }
  AQSIOS_CHECK(false) << "unknown static policy";
  return 0.0;
}

const char* StaticPriorityScheduler::name() const {
  switch (policy_) {
    case StaticPolicy::kSrpt:
      return "SRPT";
    case StaticPolicy::kHr:
      return "HR";
    case StaticPolicy::kHnr:
      return "HNR";
    case StaticPolicy::kChain:
      return "Chain";
  }
  return "static";
}

void StaticPriorityScheduler::RebuildRanks() {
  const int n = static_cast<int>(units_->size());
  order_.resize(static_cast<size_t>(n));
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int a, int b) {
    return PriorityOf(policy_, (*units_)[static_cast<size_t>(a)]) >
           PriorityOf(policy_, (*units_)[static_cast<size_t>(b)]);
  });
  rank_.assign(static_cast<size_t>(n), 0);
  for (int r = 0; r < n; ++r) rank_[static_cast<size_t>(order_[r])] = r;
}

void StaticPriorityScheduler::Attach(const UnitTable* units) {
  units_ = units;
  RebuildRanks();
  ready_.Reset(static_cast<int>(units->size()));
}

void StaticPriorityScheduler::OnStatsUpdated() {
  RebuildRanks();
  // Ranks changed; rebuild the ready bitmap keyed by the new ranks.
  ready_.Reset(static_cast<int>(units_->size()));
  for (const Unit& unit : *units_) {
    if (unit.has_pending()) {
      ready_.Insert(rank_[static_cast<size_t>(unit.id)]);
    }
  }
}

void StaticPriorityScheduler::ResyncQueues(SimTime /*now*/) {
  // Ranks are stats-derived and untouched; only the readiness bitmap is
  // queue-derived.
  ready_.Reset(static_cast<int>(units_->size()));
  for (const Unit& unit : *units_) {
    if (unit.has_pending()) {
      ready_.Insert(rank_[static_cast<size_t>(unit.id)]);
    }
  }
}

void StaticPriorityScheduler::OnEnqueue(int unit) {
  // Idempotent: a unit that was already ready stays so.
  ready_.Insert(rank_[static_cast<size_t>(unit)]);
}

void StaticPriorityScheduler::OnDequeue(int unit) {
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  if (u.queue.empty()) {
    ready_.Erase(rank_[static_cast<size_t>(unit)]);
  }
}

bool StaticPriorityScheduler::PickNext(SimTime /*now*/,
                                       SchedulingCost* cost,
                                       std::vector<int>* out) {
  // Priorities are static ranks maintained on enqueue/dequeue; the pick
  // itself is O(1) (lowest ready rank), so the decision charges zero (§6.1).
  if (ready_.empty()) return false;
  const int chosen = order_[static_cast<size_t>(ready_.First())];
  cost->candidates = 1;
  cost->chosen_priority =
      PriorityOf(policy_, (*units_)[static_cast<size_t>(chosen)]);
  out->push_back(chosen);
  return true;
}

// --- LSF ----------------------------------------------------------------------

void LsfScheduler::Attach(const UnitTable* units) {
  units_ = units;
  index_.Reserve(static_cast<int>(units->size()));
}

void LsfScheduler::OnEnqueue(int unit) {
  // A keyed unit was already pending: its head, and so its line, is
  // unchanged by a push behind it.
  if (index_.Contains(unit)) return;
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  index_.Insert(unit, u.head().arrival_time, u.stats.ideal_time);
}

void LsfScheduler::OnDequeue(int unit) {
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  if (u.queue.empty()) {
    index_.Erase(unit);
  } else {
    // The head changed: the priority line is anchored at the new head's
    // arrival time (W measures the head tuple's wait).
    index_.Insert(unit, u.head().arrival_time, u.stats.ideal_time);
  }
}

void LsfScheduler::OnStatsUpdated() {
  // The index caches line coefficients (1/T slopes) and readiness, so a
  // stats refresh and a queue resync both re-key every pending unit.
  index_.Clear();
  for (const Unit& u : *units_) {
    if (u.has_pending()) {
      index_.Insert(u.id, u.head().arrival_time, u.stats.ideal_time);
    }
  }
}

void LsfScheduler::OnCalibratedStats(const std::vector<int>& changed,
                                     SimTime /*now*/) {
  // Re-key exactly the changed units that are in the index (pending): same
  // anchor (the head wait is untouched by a stats refresh), new 1/T slope.
  // Insert on an existing id rewrites the line and replays its leaf-to-root
  // path — O(log n), no Clear.
  for (int unit : changed) {
    const Unit& u = (*units_)[static_cast<size_t>(unit)];
    if (u.has_pending()) {
      index_.Insert(unit, u.head().arrival_time, u.stats.ideal_time);
    }
  }
}

bool LsfScheduler::PickNext(SimTime now, SchedulingCost* cost,
                            std::vector<int>* out) {
  // The W/T priority is time-varying, so conceptually every pick recomputes
  // and compares the priority of each ready unit; charge both per ready unit
  // so the Figure 13–14 overhead comparisons see the naive scan's
  // accounting, regardless of how few lines the index actually touched in
  // wall-clock terms.
  if (index_.empty()) return false;
  double best_priority = 0.0;
  const int best = index_.ArgMax(now, &best_priority);
  const int64_t ready = index_.size();
  cost->computations += ready;
  cost->comparisons += ready;
  cost->candidates = ready;
  cost->chosen_priority = best_priority;
  out->push_back(best);
  return true;
}

// --- Exact BSD ------------------------------------------------------------------

void BsdScheduler::Attach(const UnitTable* units) {
  units_ = units;
  index_.Reserve(static_cast<int>(units->size()));
}

void BsdScheduler::OnEnqueue(int unit) {
  // As LSF: only a newly pending unit needs a line.
  if (index_.Contains(unit)) return;
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  index_.Insert(unit, u.head().arrival_time, u.stats.phi);
}

void BsdScheduler::OnDequeue(int unit) {
  const Unit& u = (*units_)[static_cast<size_t>(unit)];
  if (u.queue.empty()) {
    index_.Erase(unit);
  } else {
    index_.Insert(unit, u.head().arrival_time, u.stats.phi);
  }
}

void BsdScheduler::OnStatsUpdated() {
  index_.Clear();
  for (const Unit& u : *units_) {
    if (u.has_pending()) {
      index_.Insert(u.id, u.head().arrival_time, u.stats.phi);
    }
  }
}

void BsdScheduler::OnCalibratedStats(const std::vector<int>& changed,
                                     SimTime /*now*/) {
  // Same targeted re-key as LSF, over the Φ lines.
  for (int unit : changed) {
    const Unit& u = (*units_)[static_cast<size_t>(unit)];
    if (u.has_pending()) {
      index_.Insert(unit, u.head().arrival_time, u.stats.phi);
    }
  }
}

bool BsdScheduler::PickNext(SimTime now, SchedulingCost* cost,
                            std::vector<int>* out) {
  if (index_.empty()) return false;
  double best_priority = -1.0;
  const int best = index_.ArgMax(now, &best_priority);
  const int64_t ready_count = index_.size();
  // §6.2: a naive implementation recomputes the priority of every installed
  // query's leaf at each scheduling point. The charge models that naive
  // implementation — simulated cost is a property of the policy being
  // simulated, not of how fast this simulator finds the argmax.
  const int64_t touched =
      count_all_units_ ? static_cast<int64_t>(units_->size()) : ready_count;
  cost->computations += touched;
  cost->comparisons += touched;
  cost->candidates = ready_count;
  cost->chosen_priority = best_priority;
  out->push_back(best);
  return true;
}

}  // namespace aqsios::sched
