// TupleQueue regression tests for the ring buffer's tricky transitions:
// growing while the ring is wrapped (head past the physical middle) and
// shrinking surplus capacity back down after a burst drains; and UnitQueue's
// leaf side: a live range over a stream feed behind a ring prefix, and the
// rows a sheddable leaf skips.

#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "sched/unit.h"

namespace aqsios::sched {
namespace {

QueueEntry E(int64_t i) { return QueueEntry{i, static_cast<double>(i)}; }

void ExpectFifo(const TupleQueue& queue, const std::deque<int64_t>& expected) {
  ASSERT_EQ(queue.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(queue.at(i).arrival, expected[i]) << "position " << i;
  }
}

TEST(TupleQueueTest, WraparoundThenGrowPreservesOrder) {
  // Advance head so the ring is wrapped, then force Grow() mid-wrap: the
  // relocation must emit entries in FIFO order, not physical order.
  TupleQueue queue;
  std::deque<int64_t> model;
  int64_t next = 0;
  // Fill inline capacity (2), pop one, push one: head_ = 1, ring wrapped.
  queue.push_back(E(next));
  model.push_back(next++);
  queue.push_back(E(next));
  model.push_back(next++);
  queue.pop_front();
  model.pop_front();
  queue.push_back(E(next));
  model.push_back(next++);
  // Next push grows 2 -> 4 while wrapped.
  queue.push_back(E(next));
  model.push_back(next++);
  ExpectFifo(queue, model);

  // Repeat the pattern at the larger capacity: wrap at 4, grow to 8.
  queue.pop_front();
  model.pop_front();
  for (int i = 0; i < 5; ++i) {
    queue.push_back(E(next));
    model.push_back(next++);
  }
  ExpectFifo(queue, model);
  EXPECT_GE(queue.capacity(), 8u);
}

TEST(TupleQueueTest, MirrorsDequeUnderMixedChurn) {
  TupleQueue queue;
  std::deque<int64_t> model;
  int64_t next = 0;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int step = 0; step < 20000; ++step) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const bool push = model.empty() || (state >> 33) % 3 != 0;
    if (push) {
      queue.push_back(E(next));
      model.push_back(next++);
    } else {
      EXPECT_EQ(queue.front().arrival, model.front());
      queue.pop_front();
      model.pop_front();
    }
    if (step % 4096 == 0) ExpectFifo(queue, model);
  }
  ExpectFifo(queue, model);
}

TEST(TupleQueueTest, ShrinkToFitReturnsToInlineBuffer) {
  TupleQueue queue;
  for (int64_t i = 0; i < 100; ++i) queue.push_back(E(i));
  EXPECT_GE(queue.capacity(), 128u);
  for (int i = 0; i < 99; ++i) queue.pop_front();
  queue.shrink_to_fit();
  EXPECT_EQ(queue.capacity(), 2u) << "one survivor fits inline";
  EXPECT_EQ(queue.front().arrival, 99);
  // Still fully functional after relocating into the inline buffer.
  queue.push_back(E(100));
  queue.push_back(E(101));
  ExpectFifo(queue, {99, 100, 101});
}

TEST(TupleQueueTest, ShrinkToFitPicksSmallestSufficientPowerOfTwo) {
  TupleQueue queue;
  for (int64_t i = 0; i < 300; ++i) queue.push_back(E(i));
  const size_t grown = queue.capacity();
  EXPECT_GE(grown, 512u);
  // Drain to 5 survivors with a wrapped head, then shrink: 5 needs 8 slots.
  for (int i = 0; i < 295; ++i) queue.pop_front();
  queue.shrink_to_fit();
  EXPECT_EQ(queue.capacity(), 8u);
  ExpectFifo(queue, {295, 296, 297, 298, 299});
}

TEST(TupleQueueTest, ShrinkToFitIsANoOpWhenAlreadyTight) {
  TupleQueue queue;
  queue.push_back(E(0));
  queue.shrink_to_fit();  // inline buffer: nothing to release
  EXPECT_EQ(queue.capacity(), 2u);
  for (int64_t i = 1; i < 4; ++i) queue.push_back(E(i));
  EXPECT_EQ(queue.capacity(), 4u);
  queue.shrink_to_fit();  // 4 entries in 4 slots: already tight
  EXPECT_EQ(queue.capacity(), 4u);
  ExpectFifo(queue, {0, 1, 2, 3});
}

TEST(TupleQueueTest, ShrinkAfterWraparoundPreservesOrder) {
  TupleQueue queue;
  std::deque<int64_t> model;
  int64_t next = 0;
  for (int i = 0; i < 64; ++i) {
    queue.push_back(E(next));
    model.push_back(next++);
  }
  // Rotate so the ring wraps: pop 60, push 3.
  for (int i = 0; i < 60; ++i) {
    queue.pop_front();
    model.pop_front();
  }
  for (int i = 0; i < 3; ++i) {
    queue.push_back(E(next));
    model.push_back(next++);
  }
  queue.shrink_to_fit();
  EXPECT_EQ(queue.capacity(), 8u);
  ExpectFifo(queue, model);
  // And the shrunk queue keeps working: grow again from the compact state.
  for (int i = 0; i < 50; ++i) {
    queue.push_back(E(next));
    model.push_back(next++);
  }
  ExpectFifo(queue, model);
}

// A stream feed over `n` arrivals at times 0, 1, 2, ... with `leaves`
// positions, nothing delivered yet.
struct Feed {
  Feed(int n, int leaves) {
    for (int i = 0; i < n; ++i) {
      stream::Arrival arrival;
      arrival.id = i;
      arrival.time = i;
      table.push_back(arrival);
      rows.push_back(static_cast<uint32_t>(i));
    }
    feed.rows = rows.data();
    feed.table = table.data();
    feed.idle.assign(1, 0);
    feed.shed_before_block.assign(1, 0);
    feed.shed_in_block.assign(static_cast<size_t>(leaves), 0);
  }
  /// Delivers the next row; `shed_from` is its shed position (the number of
  /// leaves when nothing shed it).
  int64_t Deliver(int shed_from, int leaves) {
    feed.shed_from.push_back(shed_from);
    if (shed_from < leaves) feed.CountShed(shed_from);
    return feed.frontier++;
  }

  std::vector<stream::Arrival> table;
  std::vector<uint32_t> rows;
  StreamFeed feed;
};

TEST(UnitQueueTest, LiveRangeFollowsTheFrontierBehindARingPrefix) {
  Feed f(6, 1);
  UnitQueue queue;
  queue.push_back(QueueEntry{100, 0.5});  // a stolen prefix
  queue.Subscribe(&f.feed, 0, /*sheddable=*/false);
  EXPECT_TRUE(f.feed.IsIdle(0));
  EXPECT_EQ(queue.size(), 1u);

  queue.Activate(f.Deliver(1, 1));
  EXPECT_FALSE(f.feed.IsIdle(0));
  f.Deliver(1, 1);
  f.Deliver(1, 1);  // rows 1 and 2 join the range with no call
  ASSERT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.front().arrival, 100);
  EXPECT_EQ(queue.at(1).arrival, 0);
  EXPECT_EQ(queue.at(3).arrival, 2);
  EXPECT_EQ(queue.back().arrival, 2);
  EXPECT_DOUBLE_EQ(queue.back().arrival_time, 2.0);

  queue.pop_front();
  EXPECT_EQ(queue.front().arrival, 0);
  queue.pop_front();
  queue.pop_front();
  EXPECT_EQ(queue.front().arrival, 2);
  queue.pop_front();
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(f.feed.IsIdle(0)) << "a drained leaf is idle again";
  EXPECT_EQ(queue.Unsubscribe(), -1);
  EXPECT_FALSE(f.feed.IsIdle(0));
}

TEST(UnitQueueTest, SheddableLeafSkipsRowsShedAtOrBelowItsPosition) {
  // Two leaves; the sheddable one sits at position 1, so it skips the rows
  // whose shed position is 0 or 1 and keeps those nobody shed (2).
  Feed f(6, 2);
  UnitQueue queue;
  queue.Subscribe(&f.feed, 1, /*sheddable=*/true);
  queue.Activate(f.Deliver(2, 2));  // row 0: kept
  f.Deliver(1, 2);                  // row 1: shed from position 1 on
  f.Deliver(0, 2);                  // row 2: shed from position 0 on
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.back().arrival, 0);
  f.Deliver(2, 2);                  // row 3: kept
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(1).arrival, 3);
  EXPECT_EQ(queue.back().arrival, 3);

  queue.pop_front();  // skips rows 1 and 2
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().arrival, 3);
  queue.pop_front();
  EXPECT_TRUE(queue.empty());
  EXPECT_TRUE(f.feed.IsIdle(1));

  // Idle again, it receives row 5 after skipping row 4 without a pop.
  f.Deliver(1, 2);
  queue.Activate(f.Deliver(2, 2));
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().arrival, 5);
}

}  // namespace
}  // namespace aqsios::sched
