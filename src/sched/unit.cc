#include "sched/unit.h"

#include <algorithm>

#include "sched/chain_policy.h"

namespace aqsios::sched {

void TupleQueue::Grow() {
  const uint32_t new_cap = cap_ * 2;
  QueueEntry* grown = new QueueEntry[new_cap];
  for (uint32_t i = 0; i < len_; ++i) {
    grown[i] = buf_[(head_ + i) & (cap_ - 1)];
  }
  if (buf_ != inline_) delete[] buf_;
  buf_ = grown;
  cap_ = new_cap;
  head_ = 0;
}

void TupleQueue::shrink_to_fit() {
  if (buf_ == inline_) return;
  uint32_t target = kInlineCapacity;
  while (target < len_) target *= 2;
  if (target == cap_) return;
  QueueEntry* shrunk =
      target == kInlineCapacity ? inline_ : new QueueEntry[target];
  for (uint32_t i = 0; i < len_; ++i) {
    shrunk[i] = buf_[(head_ + i) & (cap_ - 1)];
  }
  delete[] buf_;
  buf_ = shrunk;
  cap_ = target;
  head_ = 0;
}

void StreamFeed::CountShed(int c) {
  const size_t block = static_cast<size_t>(c) >> 6;
  for (size_t b = block + 1; b < shed_before_block.size(); ++b) {
    ++shed_before_block[b];
  }
  const size_t end = std::min((block + 1) << 6, shed_in_block.size());
  for (size_t p = static_cast<size_t>(c); p < end; ++p) ++shed_in_block[p];
}

QueueEntry UnitQueue::back() const {
  if (!live_) return ring_.back();
  int64_t row = feed_->frontier - 1;
  if (sheddable_) {
    while (Sheds(row)) --row;  // begin_ is a received row
  }
  return feed_->Row(row);
}

QueueEntry UnitQueue::at(size_t i) const {
  if (i < ring_.size()) return ring_.at(i);
  i -= ring_.size();
  int64_t row = begin_;
  if (!sheddable_) return feed_->Row(row + static_cast<int64_t>(i));
  for (;; ++row) {
    if (Sheds(row)) continue;
    if (i == 0) break;
    --i;
  }
  return feed_->Row(row);
}

void UnitQueue::Subscribe(StreamFeed* feed, int position, bool sheddable) {
  AQSIOS_DCHECK(feed_ == nullptr);
  feed_ = feed;
  position_ = position;
  sheddable_ = sheddable;
  live_ = false;
  feed_->SetIdle(position_);
}

int64_t UnitQueue::Unsubscribe() {
  AQSIOS_DCHECK(feed_ != nullptr);
  const int64_t begin = live_ ? static_cast<int64_t>(begin_) : int64_t{-1};
  if (!live_) feed_->ClearIdle(position_);
  feed_ = nullptr;
  live_ = false;
  return begin;
}


const char* UnitKindName(UnitKind kind) {
  switch (kind) {
    case UnitKind::kQueryChain:
      return "query_chain";
    case UnitKind::kOperator:
      return "operator";
    case UnitKind::kSharedGroup:
      return "shared_group";
    case UnitKind::kRemainder:
      return "remainder";
    case UnitKind::kJoinSideLeft:
      return "join_side_left";
    case UnitKind::kJoinSideRight:
      return "join_side_right";
    case UnitKind::kJoinInput:
      return "join_input";
  }
  return "unknown";
}

void RederiveUnitStats(UnitStats* stats) {
  stats->output_rate = stats->selectivity / stats->expected_cost;
  stats->normalized_rate = stats->output_rate / stats->ideal_time;
  stats->phi = stats->normalized_rate / stats->ideal_time;
  stats->chain_slope =
      AggregateSlope(stats->selectivity, stats->expected_cost);
}

UnitStats StatsFromSegment(const query::SegmentStats& segment) {
  UnitStats stats;
  stats.selectivity = segment.selectivity;
  stats.expected_cost = segment.expected_cost;
  stats.output_rate = segment.OutputRate();
  stats.normalized_rate = segment.NormalizedRate();
  stats.phi = segment.Phi();
  stats.ideal_time = segment.ideal_time;
  // Default Chain slope from the segment aggregate; unit builders with
  // access to the full operator chain override this with the exact
  // progress-chart envelope slope.
  stats.chain_slope =
      AggregateSlope(segment.selectivity, segment.expected_cost);
  return stats;
}

}  // namespace aqsios::sched
