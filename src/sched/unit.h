// Schedulable units.
//
// Following the paper, the scheduler does not pick operators directly but
// *operator segments* (§3): executing a unit means the pipelined execution of
// a segment of operators on the tuple at the head of the unit's input queue.
// Depending on the scheduling level and plan structure, a unit is:
//
//   kQueryChain  — a whole single-stream query (query-level scheduling);
//   kOperator    — one operator of a chain (operator-level scheduling); its
//                  priority derives from the segment E_x starting there;
//   kSharedGroup — the shared leaf operator of a sharing group plus the
//                  member segments executed with it (§7);
//   kRemainder   — the rest L_x^i of a member segment excluded from a PDT;
//   kJoinSideLeft/kJoinSideRight — the virtual segments E_LL / E_RR of a
//                  two-stream window-join query (§5.2).
//
// Every unit carries the static priority ingredients of all policies so the
// scheduler implementations stay trivial and uniform.

#ifndef AQSIOS_SCHED_UNIT_H_
#define AQSIOS_SCHED_UNIT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"
#include "query/query.h"
#include "stream/tuple.h"

namespace aqsios::sched {

enum class UnitKind {
  kQueryChain,
  kOperator,
  kSharedGroup,
  kRemainder,
  kJoinSideLeft,
  kJoinSideRight,
  /// A third-or-later stream input of a left-deep multi-join query;
  /// Unit::op_index holds the join input index (>= 2).
  kJoinInput,
};

const char* UnitKindName(UnitKind kind);

/// One pending tuple in a unit's input queue. `arrival` is the *index* of
/// the referenced arrival in the engine's arrival table (not necessarily the
/// global Arrival::id — shard sub-tables renumber indexes but keep ids).
/// `arrival_time` is the tuple's system arrival time A_i (not the time it
/// entered this particular queue): wait times W in the LSF/BSD priorities
/// measure time in the system.
struct QueueEntry {
  stream::ArrivalId arrival = 0;
  SimTime arrival_time = 0.0;
};

/// FIFO of pending QueueEntry values, tuned for the per-unit queue's common
/// case. At simulation rates the std::deque it replaces allocated a 512-byte
/// chunk per unit up front and churned chunks in steady-state FIFO traffic;
/// most unit queues hold 0–2 entries almost all of the time, so this ring
/// buffer keeps the first two entries inline in the Unit itself and only
/// touches the heap when a queue actually backs up (capacity doubles, powers
/// of two, entries relocated in FIFO order). Supports exactly the deque
/// surface the engine, schedulers, and tests use.
class TupleQueue {
 public:
  TupleQueue() = default;
  TupleQueue(const TupleQueue& other) { CopyFrom(other); }
  TupleQueue& operator=(const TupleQueue& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  TupleQueue(TupleQueue&& other) noexcept { MoveFrom(other); }
  TupleQueue& operator=(TupleQueue&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(other);
    }
    return *this;
  }
  ~TupleQueue() { Release(); }

  bool empty() const { return len_ == 0; }
  size_t size() const { return len_; }

  QueueEntry& front() { return buf_[head_]; }
  const QueueEntry& front() const { return buf_[head_]; }
  QueueEntry& back() { return buf_[(head_ + len_ - 1) & (cap_ - 1)]; }
  const QueueEntry& back() const {
    return buf_[(head_ + len_ - 1) & (cap_ - 1)];
  }
  /// The i-th entry from the front (0 = head).
  const QueueEntry& at(size_t i) const {
    return buf_[(head_ + static_cast<uint32_t>(i)) & (cap_ - 1)];
  }

  void push_back(const QueueEntry& entry) {
    if (len_ == cap_) Grow();
    buf_[(head_ + len_) & (cap_ - 1)] = entry;
    ++len_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (cap_ - 1);
    --len_;
  }

  void clear() {
    head_ = 0;
    len_ = 0;
  }

  /// Current ring capacity (inline = 2; grows in powers of two).
  size_t capacity() const { return cap_; }

  /// Releases surplus heap capacity left behind by a burst: relocates the
  /// entries (FIFO order preserved) into the smallest power-of-two buffer
  /// that holds them — back into the inline buffer when they fit. Intended
  /// for callers that know a burst has drained; the engine's hot path never
  /// shrinks.
  void shrink_to_fit();

 private:
  static constexpr uint32_t kInlineCapacity = 2;

  void Grow();

  void CopyFrom(const TupleQueue& other) {
    buf_ = inline_;
    cap_ = kInlineCapacity;
    head_ = 0;
    len_ = 0;
    for (size_t i = 0; i < other.size(); ++i) push_back(other.at(i));
  }

  void MoveFrom(TupleQueue& other) {
    if (other.buf_ == other.inline_) {
      buf_ = inline_;
      inline_[0] = other.inline_[0];
      inline_[1] = other.inline_[1];
    } else {
      buf_ = other.buf_;
    }
    cap_ = other.cap_;
    head_ = other.head_;
    len_ = other.len_;
    other.buf_ = other.inline_;
    other.cap_ = kInlineCapacity;
    other.head_ = 0;
    other.len_ = 0;
  }

  void Release() {
    if (buf_ != inline_) delete[] buf_;
    buf_ = inline_;
    cap_ = kInlineCapacity;
    head_ = 0;
    len_ = 0;
  }

  QueueEntry inline_[kInlineCapacity];
  QueueEntry* buf_ = inline_;
  uint32_t cap_ = kInlineCapacity;  // always a power of two
  uint32_t head_ = 0;
  uint32_t len_ = 0;
};

/// The delivered arrivals of one input stream, shared by every leaf unit
/// the stream feeds (the engine owns one feed per stream). A leaf's pending
/// tuples are a range of the feed's rows, so delivering an arrival to all of
/// the stream's leaves is one frontier advance instead of one push per leaf.
///
/// Leaves sit at fixed delivery positions 0..L-1 (the engine's per-stream
/// loop order). Under load shedding each delivered row records the first
/// position c whose sheddable leaf shed it: a sheddable leaf at position p
/// skips exactly the rows with c <= p, and a non-sheddable leaf skips none.
struct StreamFeed {
  /// Arrival-table index of the stream's k-th arrival.
  const uint32_t* rows = nullptr;
  /// The arrival table the rows index.
  const stream::Arrival* table = nullptr;
  /// Rows [0, frontier) are delivered.
  int64_t frontier = 0;
  /// Bit p: the leaf at position p is subscribed and its range is empty;
  /// num_idle counts the set bits.
  std::vector<uint64_t> idle;
  int64_t num_idle = 0;
  /// Load shedding only: per delivered row, its shed position c (L when no
  /// leaf shed it).
  std::vector<int32_t> shed_from;
  /// Load shedding only: the delivered rows counted by shed position c
  /// (rows with c == L are not counted), in two levels so ShedAtOrBelow —
  /// read on every readiness change of a sheddable leaf — is two loads:
  /// per 64-position block, the rows shed from an earlier block, and per
  /// position p, the rows shed from p's block at or below p.
  std::vector<int32_t> shed_before_block;
  std::vector<int32_t> shed_in_block;

  QueueEntry Row(int64_t k) const {
    const uint32_t index = rows[k];
    return QueueEntry{index, table[index].time};
  }
  bool IsIdle(int p) const {
    return (idle[static_cast<size_t>(p) >> 6] >> (p & 63)) & 1;
  }
  void SetIdle(int p) {
    AQSIOS_DCHECK(!IsIdle(p));
    idle[static_cast<size_t>(p) >> 6] |= uint64_t{1} << (p & 63);
    ++num_idle;
  }
  void ClearIdle(int p) {
    AQSIOS_DCHECK(IsIdle(p));
    idle[static_cast<size_t>(p) >> 6] &= ~(uint64_t{1} << (p & 63));
    --num_idle;
  }
  /// Records one delivered row shed from position `c` on (c < L): O(L/64 +
  /// 64).
  void CountShed(int c);
  /// Delivered rows a sheddable leaf at position `p` skipped (c <= p).
  int64_t ShedAtOrBelow(int p) const {
    return shed_before_block[static_cast<size_t>(p) >> 6] +
           shed_in_block[static_cast<size_t>(p)];
  }
};

/// A unit's pending tuples, in FIFO order: a ring of entries, followed — for
/// a leaf subscribed to its stream's feed — by the live range of feed rows
/// the leaf has not consumed yet. Internal units (PDT remainders,
/// operator-level successors) and hand-built unit tables use only the ring;
/// a leaf's ring holds at most a stolen prefix, which is older than
/// anything its live range delivers. The surface is the deque subset the
/// schedulers and tests read; entries are returned by value because a live
/// entry is assembled from the feed.
class UnitQueue {
 public:
  bool empty() const { return !live_ && ring_.empty(); }
  size_t size() const {
    return ring_.size() + (live_ ? static_cast<size_t>(LiveSize()) : 0);
  }
  QueueEntry front() const {
    return ring_.empty() ? feed_->Row(begin_) : ring_.front();
  }
  /// The newest entry.
  QueueEntry back() const;
  /// The i-th entry from the front (0 = head). O(1) except on a live
  /// sheddable leaf, where it walks the range.
  QueueEntry at(size_t i) const;

  /// Appends to the ring; a leaf's live range must be empty (ring entries
  /// precede it).
  void push_back(const QueueEntry& entry) {
    AQSIOS_DCHECK(!live_) << "ring entries must precede the live range";
    ring_.push_back(entry);
  }
  void pop_front() {
    if (!ring_.empty()) {
      ring_.pop_front();
      return;
    }
    ++begin_;
    if (sheddable_) SkipShedRows();
    if (static_cast<int64_t>(begin_) == feed_->frontier) {
      live_ = false;
      feed_->SetIdle(position_);
    }
  }
  /// Pops the `count` (<= size()) oldest entries, passing each to `f` in
  /// FIFO order. A live range with an empty ring and no shedding is one run
  /// of feed rows: it is walked once and advanced once.
  template <typename F>
  void PopFront(size_t count, F&& f) {
    if (!ring_.empty() || !live_ || sheddable_) {
      for (size_t i = 0; i < count; ++i, pop_front()) f(front());
      return;
    }
    for (size_t i = 0; i < count; ++i) f(feed_->Row(begin_ + i));
    begin_ += static_cast<uint32_t>(count);
    if (static_cast<int64_t>(begin_) == feed_->frontier) {
      live_ = false;
      feed_->SetIdle(position_);
    }
  }
  void clear() {
    AQSIOS_DCHECK(!live_);
    ring_.clear();
  }

  // --- Leaf side (exec::Engine) ---
  /// Subscribes the leaf at `position` of `feed`, idle: from now on it
  /// receives every delivered row it does not shed.
  void Subscribe(StreamFeed* feed, int position, bool sheddable);
  /// Ends the subscription; returns the first pending row of the live
  /// range, or -1 when it was empty.
  int64_t Unsubscribe();
  /// An idle subscribed leaf received row `row` (or, on migration, takes
  /// over the range [row, frontier)): it becomes live.
  void Activate(int64_t row) {
    AQSIOS_DCHECK(feed_ != nullptr && !live_);
    begin_ = static_cast<uint32_t>(row);
    shed_base_ = sheddable_
                     ? static_cast<uint32_t>(feed_->ShedAtOrBelow(position_))
                     : 0;
    live_ = true;
    feed_->ClearIdle(position_);
  }
  /// Moves the ring out (migration).
  TupleQueue TakeRing() { return std::move(ring_); }
  const TupleQueue& ring() const { return ring_; }

 private:
  int64_t LiveSize() const {
    int64_t n = feed_->frontier - static_cast<int64_t>(begin_);
    if (sheddable_) {
      n -= feed_->ShedAtOrBelow(position_) - static_cast<int64_t>(shed_base_);
    }
    return n;
  }
  bool Sheds(int64_t row) const {
    return feed_->shed_from[static_cast<size_t>(row)] <= position_;
  }
  void SkipShedRows() {
    while (static_cast<int64_t>(begin_) < feed_->frontier && Sheds(begin_)) {
      ++begin_;
      ++shed_base_;
    }
  }

  // Ordered so a Unit stays small: the schedulers' full-table scans
  // (ResyncQueues) read every unit's emptiness.
  TupleQueue ring_;
  /// The live range is non-empty.
  bool live_ = false;
  bool sheddable_ = false;
  int32_t position_ = 0;
  /// Live range: first pending row (valid while live_; row indexes are
  /// 32-bit, see stream::BuildStreamRowIndex), and ShedAtOrBelow of this
  /// position at the time the range started plus the shed rows the leaf has
  /// skipped since — so the range's skipped rows are
  /// ShedAtOrBelow(position_) - shed_base_.
  uint32_t begin_ = 0;
  uint32_t shed_base_ = 0;
  /// Non-null while subscribed (leaf units only).
  StreamFeed* feed_ = nullptr;
};

/// Static priority ingredients of a unit (derived from SegmentStats, or from
/// a sharing strategy for kSharedGroup units). "Static" means per-scheduling
/// -point constant; the online calibrator (sched/calibration.h) may refresh
/// these from run-time observations (followed by
/// Scheduler::OnCalibratedStats).
struct UnitStats {
  /// Global selectivity S of the unit's segment (expected emissions per
  /// execution).
  double selectivity = 1.0;
  /// Global average cost C̄ of the unit's segment (expected busy seconds per
  /// execution).
  SimTime expected_cost = 0.0;
  /// Output rate S/C̄ — the HR priority (Eq. 4).
  double output_rate = 0.0;
  /// Normalized rate S/(C̄·T) — the HNR priority (Eq. 3).
  double normalized_rate = 0.0;
  /// Φ = S/(C̄·T²) — static component of the BSD priority (§6.2.1).
  double phi = 0.0;
  /// Ideal total processing time T of the tuples this unit produces; the
  /// denominator of LSF's W/T and SRPT's shortest-first ordering.
  SimTime ideal_time = 0.0;
  /// Steepest progress-chart slope from this unit's first operator — the
  /// Chain policy's priority (see sched/chain_policy.h).
  double chain_slope = 0.0;
};

/// Builds UnitStats from an operator segment's characterizing parameters.
UnitStats StatsFromSegment(const query::SegmentStats& segment);

/// Recomputes the derived priority fields of `stats` from its selectivity,
/// expected_cost and ideal_time. Used by the online calibrator.
void RederiveUnitStats(UnitStats* stats);

struct Unit {
  int id = 0;
  UnitKind kind = UnitKind::kQueryChain;
  /// Owning query (kQueryChain/kOperator/kRemainder/kJoinSide*); the first
  /// member for kSharedGroup.
  query::QueryId query = 0;
  /// kOperator: chain position of this operator. kRemainder: first chain
  /// position of the remainder segment. Unused otherwise.
  int op_index = 0;
  /// Sharing group index for kSharedGroup units; -1 otherwise.
  int group = -1;
  /// Stream feeding this unit, or -1 for internal units (kRemainder and
  /// non-leaf kOperator units) fed by upstream units.
  stream::StreamId input_stream = -1;

  // The queue precedes the stats: every dispatch and readiness change reads
  // the queue's state, which then shares a cache line with the fields above.
  UnitQueue queue;
  UnitStats stats;

  bool has_pending() const { return !queue.empty(); }
  QueueEntry head() const { return queue.front(); }
  /// Wait time of the head-of-queue tuple (W_x in the paper).
  SimTime HeadWait(SimTime now) const { return now - queue.front().arrival_time; }
};

using UnitTable = std::vector<Unit>;

/// Cost and shape of one scheduling decision. The engine charges
/// (computations + comparisons) × (cheapest operator cost) of simulated time
/// when overhead charging is enabled (§9.2); `candidates` and
/// `chosen_priority` are the observability side of the same decision (trace
/// events, per-policy decision accounting) and never affect the clock.
struct SchedulingCost {
  int64_t computations = 0;
  int64_t comparisons = 0;
  /// Ready units (or clusters) the decision examined; policies that pop a
  /// precomputed order report 1 (the popped candidate).
  int64_t candidates = 0;
  /// Priority value of the chosen unit under the policy's own priority
  /// function; 0 for policies without a numeric priority (FCFS, RR).
  double chosen_priority = 0.0;

  int64_t total() const { return computations + comparisons; }
  void Clear() {
    computations = comparisons = candidates = 0;
    chosen_priority = 0.0;
  }
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_UNIT_H_
