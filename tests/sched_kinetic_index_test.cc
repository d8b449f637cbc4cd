// KineticIndex correctness: randomized equivalence against a brute-force
// reference (both eval modes, dense and tournament-tree regimes, and live
// counts that walk across both mode thresholds), the tree's mutation-time path replay under
// the engine's pick/re-key pattern, same-clock mutations, zero-priority tie
// bursts, growth and Clear with live lines, golden-trace equivalence of
// the kinetic schedulers against the scan oracles of scan_schedulers.h
// (picks *and* simulated SchedulingCost charges, in dense and tree mode),
// and full-simulation equality against the oracles.

#include "sched/kinetic_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/dsms.h"
#include "query/workload.h"
#include "sched/basic_policies.h"
#include "sched/clustered_bsd.h"
#include "sched/policy.h"
#include "scan_schedulers.h"

namespace aqsios::sched {
namespace {

// ---------------------------------------------------------------------------
// Brute-force reference.

struct RefLine {
  double anchor = 0.0;
  double coef = 1.0;
  double tie = 0.0;
};

/// The scan the index must reproduce bit for bit: first maximum under
/// strict >, iterating ids in ascending order (ties therefore go to the
/// smallest (tie, id)).
int ReferenceArgMax(const std::map<int, RefLine>& lines,
                    KineticIndex::EvalMode mode, double now,
                    double* priority) {
  int best = -1;
  double best_priority = 0.0;
  double best_tie = 0.0;
  for (const auto& [id, line] : lines) {
    const double p = mode == KineticIndex::EvalMode::kRatio
                         ? (now - line.anchor) / line.coef
                         : line.coef * (now - line.anchor);
    if (best < 0 || p > best_priority ||
        (p == best_priority && line.tie < best_tie)) {
      best = id;
      best_priority = p;
      best_tie = line.tie;
    }
  }
  if (best >= 0 && priority != nullptr) *priority = best_priority;
  return best;
}

/// One query checked against the reference: the same id and, because both
/// sides must use the same arithmetic, exactly the same priority. The
/// index's answer goes to *winner.
::testing::AssertionResult QueryMatches(KineticIndex& index,
                                        const std::map<int, RefLine>& lines,
                                        KineticIndex::EvalMode mode,
                                        double now, int* winner) {
  double expected_priority = 0.0;
  const int expected = ReferenceArgMax(lines, mode, now, &expected_priority);
  double actual_priority = 0.0;
  *winner = index.ArgMax(now, &actual_priority);
  if (*winner != expected) {
    return ::testing::AssertionFailure()
           << "now=" << now << ": index picked " << *winner
           << ", scan picked " << expected;
  }
  if (expected >= 0 && actual_priority != expected_priority) {
    return ::testing::AssertionFailure()
           << "now=" << now << ": priority " << actual_priority
           << " != scan's " << expected_priority;
  }
  if (index.size() != static_cast<int>(lines.size())) {
    return ::testing::AssertionFailure() << "size " << index.size();
  }
  return ::testing::AssertionSuccess();
}

void Put(KineticIndex& index, std::map<int, RefLine>& lines, int id,
         RefLine line) {
  lines[id] = line;
  index.Insert(id, line.anchor, line.coef, line.tie);
}

void Drop(KineticIndex& index, std::map<int, RefLine>& lines, int id) {
  lines.erase(id);
  index.Erase(id);
}

/// Drives the index and the reference through `steps` random mutations and
/// queries over ids in [0, max_id) and asserts identical answers throughout.
void RunRandomizedTrace(KineticIndex::EvalMode mode, int max_id, int steps,
                        uint64_t seed, bool reserve_first) {
  KineticIndex index(mode);
  if (reserve_first) index.Reserve(max_id);
  std::map<int, RefLine> reference;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id_dist(0, max_id - 1);
  std::uniform_real_distribution<double> anchor_dist(0.0, 10.0);
  std::uniform_real_distribution<double> coef_dist(0.01, 5.0);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int> tie_dist(0, 2);
  double now = 0.0;
  for (int step = 0; step < steps; ++step) {
    const int op = op_dist(rng);
    if (op < 5) {  // insert or re-key
      const int id = id_dist(rng);
      RefLine line;
      // Anchors may lie ahead of `now` (a queue head that arrived "recently"
      // relative to a stale clock) and ties collide often on purpose.
      line.anchor = anchor_dist(rng);
      line.coef = coef_dist(rng);
      line.tie = static_cast<double>(tie_dist(rng));
      reference[id] = line;
      index.Insert(id, line.anchor, line.coef, line.tie);
    } else if (op < 7) {  // erase
      const int id = id_dist(rng);
      reference.erase(id);
      index.Erase(id);
    } else {  // query at an advanced clock
      now += anchor_dist(rng) * 0.3;
      int winner = -1;
      ASSERT_TRUE(QueryMatches(index, reference, mode, now, &winner))
          << "step " << step;
    }
    ASSERT_EQ(index.size(), static_cast<int>(reference.size()));
  }
}

TEST(KineticIndexTest, RandomizedTraceDenseRatio) {
  // max_id 60 <= kDenseMaxCapacity: the whole trace runs in dense mode.
  RunRandomizedTrace(KineticIndex::EvalMode::kRatio, 60, 4000, 0xA1, true);
}

TEST(KineticIndexTest, RandomizedTraceDenseScaled) {
  RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 60, 4000, 0xB2, true);
}

TEST(KineticIndexTest, RandomizedTraceTreeRatio) {
  // max_id 600 settles near 430 live lines: after the first ~130 inserts
  // the trace runs in the tournament tree.
  RunRandomizedTrace(KineticIndex::EvalMode::kRatio, 600, 4000, 0xC3, true);
}

TEST(KineticIndexTest, RandomizedTraceTreeScaled) {
  RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 600, 4000, 0xD4, true);
}

TEST(KineticIndexTest, RandomizedTraceGrowthSwitch) {
  // No Reserve: the index starts dense at capacity 1, grows while dense and
  // crosses into tree mode mid-trace once more than kDenseMaxCapacity lines
  // are live.
  RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 400, 4000, 0xE5, false);
}

/// A line that beats `Filler` at every t > 0 in `mode`: both anchored at 0,
/// this one twice as steep.
RefLine Steep(KineticIndex::EvalMode mode) {
  return RefLine{0.0, mode == KineticIndex::EvalMode::kRatio ? 0.5 : 2.0, 0.0};
}
RefLine Filler() { return RefLine{0.0, 1.0, 0.0}; }

TEST(KineticIndexTest, DenseModeFlagTracksLiveCount) {
  // The mode follows the live lines, not the capacity: dense up to
  // kDenseMaxCapacity of them, the tree from one more, and dense again once
  // an erase leaves kDenseMinLines or fewer. Each switch keeps every line
  // and is checked between two queries at the same clock.
  constexpr int kMax = KineticIndex::kDenseMaxCapacity;
  constexpr int kMin = KineticIndex::kDenseMinLines;
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(1024);
    EXPECT_TRUE(index.dense());
    std::map<int, RefLine> lines;
    int winner = -1;
    Put(index, lines, 5, Steep(mode));
    for (int id = 200; index.size() < kMax; ++id) {
      Put(index, lines, id, Filler());
    }
    EXPECT_TRUE(index.dense());
    EXPECT_EQ(index.size(), kMax);
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    EXPECT_EQ(winner, 5);
    EXPECT_EQ(index.node_recomputes(), 0) << "dense mode keeps no tree";
    // One more live line builds the tree around all of them.
    Put(index, lines, 1000, Filler());
    EXPECT_FALSE(index.dense());
    EXPECT_EQ(index.size(), kMax + 1);
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    EXPECT_EQ(winner, 5);
    const int64_t built = index.node_recomputes();
    EXPECT_GT(built, 0);
    // Falling back below kDenseMaxCapacity keeps the tree ...
    while (index.size() > kMin + 1) Drop(index, lines, lines.rbegin()->first);
    EXPECT_FALSE(index.dense());
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    EXPECT_EQ(winner, 5);
    // ... until an erase leaves kDenseMinLines: the survivors move back into
    // the flat arrays without a single match replay.
    const int64_t before = index.node_recomputes();
    Drop(index, lines, lines.rbegin()->first);
    EXPECT_TRUE(index.dense());
    EXPECT_EQ(index.size(), kMin);
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    EXPECT_EQ(winner, 5);
    EXPECT_EQ(index.node_recomputes(), before);
    // Every filler ties: without line 5 the smallest filler id wins.
    Drop(index, lines, 5);
    ASSERT_TRUE(QueryMatches(index, lines, mode, 2.0, &winner));
    EXPECT_EQ(winner, 200);
    EXPECT_EQ(index.clears(), 0) << "a mode switch is not a Clear";
  }
}

TEST(KineticIndexTest, ReserveAboveCapStaysDenseUntilFilled) {
  KineticIndex index(KineticIndex::EvalMode::kRatio);
  index.Reserve(500);
  EXPECT_TRUE(index.dense()) << "capacity alone never builds the tree";
  index.Insert(400, 0.0, 2.0);
  index.Insert(7, 0.0, 4.0);
  // (now - 0) / 2 > (now - 0) / 4.
  EXPECT_EQ(index.ArgMax(8.0), 400);
  EXPECT_EQ(index.node_recomputes(), 0);
  // Fillers that never win: (now - 0) / 8.
  for (int id = 10; index.size() <= KineticIndex::kDenseMaxCapacity; ++id) {
    index.Insert(id, 0.0, 8.0);
  }
  EXPECT_FALSE(index.dense());
  EXPECT_EQ(index.ArgMax(8.0), 400);
  EXPECT_GT(index.node_recomputes(), 0);
}

TEST(KineticIndexTest, TreeCertificatesSuppressRecomputes) {
  // With static lines and a monotone clock, repeated queries after the first
  // must ride the root certificate (no recomputation) until a crossover.
  KineticIndex index(KineticIndex::EvalMode::kScaled);
  index.Reserve(500);
  // Line A: 1.0 * (t - 0)  — wins early. Line B: 10 * (t - 9) — overtakes at
  // t = 10.
  index.Insert(0, 0.0, 1.0);
  index.Insert(300, 9.0, 10.0);
  // Fillers 0.5 * (t - 0) never win, and put the index in tree mode.
  for (int id = 1; index.size() <= KineticIndex::kDenseMaxCapacity; ++id) {
    index.Insert(id, 0.0, 0.5);
  }
  ASSERT_FALSE(index.dense());
  EXPECT_EQ(index.ArgMax(9.5), 0);
  const int64_t after_first = index.node_recomputes();
  EXPECT_EQ(index.ArgMax(9.6), 0);
  EXPECT_EQ(index.ArgMax(9.7), 0);
  EXPECT_EQ(index.node_recomputes(), after_first)
      << "queries inside the certificate window must be O(1)";
  EXPECT_EQ(index.ArgMax(11.0), 300) << "crossover must be noticed";
}

TEST(KineticIndexTest, ClearEmptiesBothModes) {
  for (const bool tree : {false, true}) {
    KineticIndex index(KineticIndex::EvalMode::kScaled);
    index.Reserve(500);
    index.Insert(1, 0.0, 1.0);
    index.Insert(2, 0.0, 2.0);
    // In the tree case, fillers 0.5 * (t - 0) that never win.
    for (int id = 100; tree && index.size() <= KineticIndex::kDenseMaxCapacity;
         ++id) {
      index.Insert(id, 0.0, 0.5);
    }
    ASSERT_EQ(index.dense(), !tree);
    index.Clear();
    EXPECT_TRUE(index.empty());
    EXPECT_TRUE(index.dense());
    EXPECT_FALSE(index.Contains(2));
    EXPECT_FALSE(index.Contains(100));
    EXPECT_EQ(index.ArgMax(5.0), -1);
    index.Insert(3, 0.0, 1.0);
    EXPECT_EQ(index.ArgMax(5.0), 3);
  }
}

/// Random-walks the live count across both mode thresholds: it climbs past
/// kDenseMaxCapacity, falls to kDenseMinLines or below, and turns around
/// again, `rounds` times, at random overshoots. Every mutation sits between
/// two queries at the same clock, so each switch is checked bit for bit at
/// the instant it happens, and dense() is checked against the rule after
/// every mutation. Picks re-key or erase the winner, as the engine does.
void RunThresholdWalk(KineticIndex::EvalMode mode, int capacity, int rounds,
                      uint64_t seed) {
  constexpr int kMax = KineticIndex::kDenseMaxCapacity;
  constexpr int kMin = KineticIndex::kDenseMinLines;
  KineticIndex index(mode);
  index.Reserve(capacity);
  std::map<int, RefLine> lines;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id_dist(0, capacity - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> coef_dist(0.01, 5.0);
  std::uniform_int_distribution<int> tie_dist(0, 1);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int> overshoot_dist(0, 20);
  bool expect_dense = true;
  bool climbing = true;
  int turn_at = kMax + overshoot_dist(rng);
  int ups = 0;
  int downs = 0;
  double now = 0.0;
  int winner = -1;
  for (int step = 0; downs < rounds; ++step) {
    ASSERT_LT(step, 100000) << "the walk stopped crossing the thresholds";
    const int live = static_cast<int>(lines.size());
    if (climbing && live > turn_at) {
      climbing = false;
      turn_at = kMin - overshoot_dist(rng);
    } else if (!climbing && live <= turn_at) {
      climbing = true;
      turn_at = kMax + overshoot_dist(rng);
    }
    if (op_dist(rng) > 0) now += 0.01 * unit(rng);
    ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
        << "step " << step;
    const int op = op_dist(rng);
    if (op < 2 && winner >= 0) {  // the pick's re-key
      RefLine line = lines[winner];
      line.anchor += 0.02 * unit(rng);
      Put(index, lines, winner, line);
    } else if (op < (climbing ? 8 : 4)) {  // an arrival, maybe a re-key
      Put(index, lines, id_dist(rng),
          RefLine{now - 0.05 * unit(rng) + 0.01, coef_dist(rng),
                  static_cast<double>(tie_dist(rng))});
    } else if (!lines.empty()) {  // a drained queue: the winner or any line
      auto it = lines.begin();
      if (op == 9) {
        it = lines.find(winner);
      } else {
        std::advance(it, std::uniform_int_distribution<int>(
                             0, static_cast<int>(lines.size()) - 1)(rng));
      }
      Drop(index, lines, it->first);
    }
    if (expect_dense && index.size() > kMax) {
      expect_dense = false;
      ++ups;
    } else if (!expect_dense && index.size() <= kMin) {
      expect_dense = true;
      ++downs;
    }
    ASSERT_EQ(index.dense(), expect_dense)
        << "step " << step << ", " << index.size() << " live lines";
    ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
        << "step " << step;
  }
  EXPECT_EQ(ups, rounds);
  EXPECT_EQ(index.clears(), 0);
}

TEST(KineticIndexTest, RandomizedTraceThresholdWalkRatio) {
  for (const int capacity : {512, 4096}) {
    RunThresholdWalk(KineticIndex::EvalMode::kRatio, capacity, 5,
                     0x71 + static_cast<uint64_t>(capacity));
  }
}

TEST(KineticIndexTest, RandomizedTraceThresholdWalkScaled) {
  for (const int capacity : {512, 4096}) {
    RunThresholdWalk(KineticIndex::EvalMode::kScaled, capacity, 5,
                     0x72 + static_cast<uint64_t>(capacity));
  }
}

TEST(KineticIndexTest, ResyncOfALargeIndexStaysDense) {
  // A shard engine of an elastic run sizes its index for the whole plan but
  // owns a ready unit or two: each resync (Clear, then re-insert the owned
  // units) must leave it scanning those lines, not replaying tree paths.
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(1024);
    std::map<int, RefLine> lines;
    int winner = -1;
    for (int id = 0; index.size() <= KineticIndex::kDenseMaxCapacity;
         id += 7) {
      Put(index, lines, id, RefLine{0.1 * (id % 5), 1.0 + id % 3, 0.0});
    }
    ASSERT_FALSE(index.dense());
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    double now = 1.0;
    for (int resync = 0; resync < 4; ++resync) {
      index.Clear();
      lines.clear();
      const int64_t before = index.node_recomputes();
      Put(index, lines, 1000 - resync, RefLine{now - 0.3, 2.0, 0.0});
      if (resync % 2 == 0) Put(index, lines, 3, RefLine{now - 0.1, 0.5, 0.0});
      EXPECT_TRUE(index.dense());
      now += 0.1;
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner));
      Put(index, lines, winner, RefLine{now, 1.0, 0.0});
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner));
      EXPECT_TRUE(index.dense());
      EXPECT_EQ(index.node_recomputes(), before);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation-time path replay: Insert and Erase re-decide their leaf-to-root
// path at the latest query time, so every later query must still match the
// scan bit for bit.

/// The engine's pattern on a tree-sized index: every pick re-keys the
/// returned winner to a later anchor (its next queued tuple, possibly past
/// the clock) or erases it (queue drained); arrivals insert lines anchored
/// at the clock, sometimes in bursts; and some steps mutate between two
/// queries at the same clock.
void RunEngineTrace(KineticIndex::EvalMode mode, int capacity, int steps,
                    uint64_t seed) {
  KineticIndex index(mode);
  index.Reserve(capacity);
  std::map<int, RefLine> lines;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id_dist(0, capacity - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> coef_dist(0.01, 5.0);
  std::uniform_int_distribution<int> tie_dist(0, 1);
  std::uniform_int_distribution<int> op_dist(0, 9);
  auto random_line = [&](double anchor) {
    return RefLine{anchor, coef_dist(rng), static_cast<double>(tie_dist(rng))};
  };
  for (int i = 0; i < capacity / 2; ++i) {
    Put(index, lines, id_dist(rng), random_line(unit(rng)));
  }
  ASSERT_FALSE(index.dense());
  double now = 1.0;
  int winner = -1;
  for (int step = 0; step < steps; ++step) {
    const int op = op_dist(rng);
    if (op < 6) {  // pick, then re-key or erase the winner
      if (op > 0) now += 0.01 * unit(rng);  // op 0 re-picks at the same clock
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
          << "step " << step;
      if (winner < 0) continue;
      if (unit(rng) < 0.25) {
        Drop(index, lines, winner);
      } else {
        RefLine line = lines[winner];
        line.anchor += 0.02 * unit(rng);
        Put(index, lines, winner, line);
      }
    } else if (op < 8) {  // one arrival, or a burst anchored at the clock
      const int arrivals = op == 6 ? 1 : 2 + static_cast<int>(6 * unit(rng));
      for (int k = 0; k < arrivals; ++k) {
        const int id = id_dist(rng);
        if (lines.count(id) == 0) Put(index, lines, id, random_line(now));
      }
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
          << "step " << step;
    } else {  // mutations between two queries at the same clock
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
          << "step " << step;
      for (int k = 0; k < 3; ++k) {
        const int id = id_dist(rng);
        if (op == 8) {
          Put(index, lines, id, random_line(now - 0.05 * unit(rng)));
        } else {
          Drop(index, lines, id);
        }
      }
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
          << "step " << step;
    }
  }
}

TEST(KineticIndexTest, EagerReplayEngineTraceRatio) {
  for (const int capacity : {512, 4096}) {
    RunEngineTrace(KineticIndex::EvalMode::kRatio, capacity, 6000,
                   0x51 + static_cast<uint64_t>(capacity));
  }
}

TEST(KineticIndexTest, EagerReplayEngineTraceScaled) {
  for (const int capacity : {512, 4096}) {
    RunEngineTrace(KineticIndex::EvalMode::kScaled, capacity, 6000,
                   0x52 + static_cast<uint64_t>(capacity));
  }
}

TEST(KineticIndexTest, ZeroPriorityBurstGoesToSmallestTieThenId) {
  // A burst anchored at the next query time is replayed at the previous
  // query time, where every new line is still negative and the flatter one
  // wins each match. At the query all of them sit at p = 0, so the answer
  // must be the smallest (tie, id) — and stay so while the winners are
  // popped one by one at that same clock.
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    for (const int capacity : {512, 4096}) {
      KineticIndex index(mode);
      index.Reserve(capacity);
      std::map<int, RefLine> lines;
      std::mt19937_64 rng(0x2E0 + static_cast<uint64_t>(capacity));
      std::uniform_int_distribution<int> id_dist(0, capacity - 1);
      std::uniform_real_distribution<double> coef_dist(0.01, 5.0);
      std::uniform_int_distribution<int> tie_dist(0, 2);
      int winner = -1;
      for (int i = 0; i < 50; ++i) {
        Put(index, lines, id_dist(rng), RefLine{0.0, coef_dist(rng), 0.0});
      }
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
      while (!lines.empty()) Drop(index, lines, lines.begin()->first);
      for (int i = 0; i < 200; ++i) {
        Put(index, lines, id_dist(rng),
            RefLine{2.0, coef_dist(rng), static_cast<double>(tie_dist(rng))});
      }
      int popped = 0;
      while (!lines.empty()) {
        ASSERT_TRUE(QueryMatches(index, lines, mode, 2.0, &winner));
        // Every remaining line ties at p = 0: each next winner must come
        // later in (tie, id) order than the one before.
        if (popped++ % 3 == 0) {
          Drop(index, lines, winner);
        } else {
          RefLine line = lines[winner];
          line.anchor = 2.5;  // re-keyed behind the clock's burst
          Put(index, lines, winner, line);
          ASSERT_TRUE(QueryMatches(index, lines, mode, 2.0, &winner));
          Drop(index, lines, winner);
        }
      }
      EXPECT_EQ(index.ArgMax(2.0), -1);
    }
  }
}

TEST(KineticIndexTest, TieHeavyWalkReplaysOneMatchPerLevel) {
  // Every line shares one anchor and one coefficient, so every match on
  // every level ties on priority and is decided by (tie, id) alone. A
  // random walk of inserts, re-keys and erases keeps the index in tree
  // mode, checks it against the scan after every mutation, and checks that
  // each tree-mode Insert or Erase replays exactly one match per level.
  constexpr int kCapacity = 256;
  constexpr int kDepth = 8;  // log2(kCapacity)
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(kCapacity);
    std::map<int, RefLine> lines;
    std::mt19937_64 rng(mode == KineticIndex::EvalMode::kRatio ? 0x71E : 0x7AB);
    std::uniform_int_distribution<int> id_dist(0, kCapacity - 1);
    std::uniform_int_distribution<int> tie_dist(0, 3);
    std::uniform_int_distribution<int> op_dist(0, 2);
    const RefLine shared{1.0, 0.75, 0.0};
    const auto line_with_tie = [&] {
      RefLine line = shared;
      line.tie = static_cast<double>(tie_dist(rng));
      return line;
    };
    while (index.dense()) Put(index, lines, id_dist(rng), line_with_tie());
    double now = 1.0;
    int winner = -1;
    int64_t tree_mutations = 0;
    for (int step = 0; step < 3000; ++step) {
      const int id = id_dist(rng);
      // Erase only while the tree keeps well above kDenseMinLines.
      const bool erase = op_dist(rng) == 0 &&
                         index.size() > KineticIndex::kDenseMinLines + 8;
      const int64_t before = index.node_recomputes();
      if (erase) {
        const bool present = index.Contains(id);
        Drop(index, lines, id);
        if (present) {
          ++tree_mutations;
          ASSERT_EQ(index.node_recomputes() - before, kDepth)
              << "erase of " << id << " at step " << step;
        }
      } else {
        Put(index, lines, id, line_with_tie());
        ++tree_mutations;
        ASSERT_EQ(index.node_recomputes() - before, kDepth)
            << "insert of " << id << " at step " << step;
      }
      ASSERT_FALSE(index.dense());
      now += 0.25;
      ASSERT_TRUE(QueryMatches(index, lines, mode, now, &winner))
          << "step " << step;
    }
    EXPECT_GT(tree_mutations, 2000);
  }
}

TEST(KineticIndexTest, GrowthAndClearWithLiveLines) {
  // Growth past capacity rebuilds the tree around the live lines at the
  // latest query time; Clear resets only the live lines' nodes and returns
  // the index to dense mode. Re-inserting the lines builds the tree once,
  // when the live count passes kDenseMaxCapacity; afterwards every mutation
  // replays exactly its own path, and every query must answer exactly like
  // the scan.
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    for (const int capacity : {512, 4096}) {
      KineticIndex index(mode);
      index.Reserve(capacity);
      std::map<int, RefLine> lines;
      std::mt19937_64 rng(0x6E0 + static_cast<uint64_t>(capacity));
      std::uniform_int_distribution<int> id_dist(0, capacity - 1);
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      auto random_line = [&](double anchor) {
        return RefLine{anchor, 0.01 + 5.0 * unit(rng),
                       static_cast<double>(static_cast<int>(3 * unit(rng)))};
      };
      int winner = -1;
      for (int i = 0; i < capacity / 2; ++i) {
        Put(index, lines, id_dist(rng), random_line(unit(rng)));
      }
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
      // Grow: an id past capacity doubles the leaf row under the live
      // lines, which are then re-keyed, erased and joined by more.
      Put(index, lines, capacity + 3, random_line(1.0));
      for (int i = 0; i < 40; ++i) {
        const int id = id_dist(rng);
        if (i % 4 == 0) {
          Drop(index, lines, id);
        } else {
          Put(index, lines, id, random_line(1.0 + 0.1 * unit(rng)));
        }
      }
      Drop(index, lines, winner);
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.05, &winner));
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.2, &winner));
      // Clear and re-insert everything: the first kDenseMaxCapacity lines
      // go into the flat arrays, the next one builds the grown tree
      // (2 * capacity leaves, one match per internal node), and each line
      // after it replays its own path and nothing else.
      const std::map<int, RefLine> kept = lines;
      ASSERT_GT(kept.size(),
                static_cast<size_t>(KineticIndex::kDenseMaxCapacity) + 1);
      index.Clear();
      lines.clear();
      EXPECT_TRUE(index.dense());
      for (const auto& [id, line] : kept) EXPECT_FALSE(index.Contains(id));
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.2, &winner));
      int depth = 0;
      for (int leaves = 2 * capacity; leaves > 1; leaves >>= 1) ++depth;
      const int64_t before = index.node_recomputes();
      for (const auto& [id, line] : kept) Put(index, lines, id, line);
      EXPECT_FALSE(index.dense());
      const int64_t after_build = static_cast<int64_t>(kept.size()) -
                                  (KineticIndex::kDenseMaxCapacity + 1);
      EXPECT_EQ(index.node_recomputes() - before,
                (2 * capacity - 1) + depth * after_build);
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.2, &winner));
      Put(index, lines, winner, random_line(1.3));
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.4, &winner));
      // The resync pattern of a sharded run: clear, then a line or two.
      index.Clear();
      lines.clear();
      Put(index, lines, capacity + 3, random_line(1.45));
      Put(index, lines, 7, random_line(1.35));
      EXPECT_TRUE(index.dense());
      ASSERT_TRUE(QueryMatches(index, lines, mode, 1.5, &winner));
    }
  }
}

TEST(KineticIndexTest, ReserveRestartsTheClock) {
  // Schedulers call Reserve once per run, and a new run's clock starts
  // over. Lines inserted after it must be matched at the new clock, not at
  // the previous run's last query time.
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(500);
    index.Insert(1, 0.0, 1.0);
    EXPECT_EQ(index.ArgMax(100.0), 1);
    index.Reserve(500);
    std::map<int, RefLine> lines;
    Put(index, lines, 0, RefLine{0.0, 1.0, 0.0});
    // Steeper in either mode; it overtakes line 0 only after t = 1.
    Put(index, lines, 400,
        mode == KineticIndex::EvalMode::kRatio ? RefLine{0.95, 0.1, 0.0}
                                               : RefLine{0.95, 10.0, 0.0});
    int winner = -1;
    ASSERT_TRUE(QueryMatches(index, lines, mode, 1.0, &winner));
    EXPECT_EQ(winner, 0);
    ASSERT_TRUE(QueryMatches(index, lines, mode, 2.0, &winner));
    EXPECT_EQ(winner, 400);
  }
}

// ---------------------------------------------------------------------------
// Golden-trace equivalence: kinetic scheduler vs its scan oracle.

Unit MakeUnit(int id, double phi, SimTime ideal_time) {
  Unit unit;
  unit.id = id;
  unit.kind = UnitKind::kQueryChain;
  unit.query = id;
  unit.input_stream = 0;
  unit.stats.phi = phi;
  unit.stats.output_rate = phi * 2.0;
  unit.stats.normalized_rate = phi * 1.5;
  unit.stats.ideal_time = ideal_time;
  return unit;
}

UnitTable MakeUnits(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> phi_dist(0.05, 20.0);
  std::uniform_int_distribution<int> ideal_dist(1, 5);
  UnitTable units;
  for (int i = 0; i < n; ++i) {
    // Few distinct ideal_times (LSF coefficient classes) and continuous phi,
    // mirroring the testbed's shape; both produce frequent priority ties.
    units.push_back(
        MakeUnit(i, phi_dist(rng), 0.001 * ideal_dist(rng)));
  }
  return units;
}

/// Runs the same random enqueue/pick trace through both schedulers and
/// asserts identical picks and identical SchedulingCost charges. The two
/// unit tables evolve in lockstep because picks match. `*saw_tree` reports
/// whether `index` (the kinetic scheduler's) was ever in tree mode.
void RunGoldenTrace(Scheduler& kinetic, Scheduler& scan, int n, int steps,
                    uint64_t seed, const KineticIndex& index,
                    bool* saw_tree) {
  *saw_tree = false;
  UnitTable units_a = MakeUnits(n, seed);
  UnitTable units_b = MakeUnits(n, seed);
  kinetic.Attach(&units_a);
  scan.Attach(&units_b);
  std::mt19937_64 rng(seed ^ 0x5EED);
  std::uniform_int_distribution<int> unit_dist(0, n - 1);
  std::uniform_int_distribution<int> op_dist(0, 3);
  double now = 0.0;
  int64_t arrival = 0;
  for (int step = 0; step < steps; ++step) {
    now += 0.001;
    if (op_dist(rng) != 0) {  // enqueue (weighted 3:1 over pick)
      const int u = unit_dist(rng);
      units_a[static_cast<size_t>(u)].queue.push_back(QueueEntry{arrival, now});
      units_b[static_cast<size_t>(u)].queue.push_back(QueueEntry{arrival, now});
      ++arrival;
      kinetic.OnEnqueue(u);
      scan.OnEnqueue(u);
      *saw_tree = *saw_tree || !index.dense();
      continue;
    }
    SchedulingCost cost_a;
    SchedulingCost cost_b;
    std::vector<int> out_a;
    std::vector<int> out_b;
    const bool ok_a = kinetic.PickNext(now, &cost_a, &out_a);
    const bool ok_b = scan.PickNext(now, &cost_b, &out_b);
    ASSERT_EQ(ok_a, ok_b) << "step " << step;
    ASSERT_EQ(out_a, out_b) << "step " << step;
    // The simulated overhead charges must be identical: the kinetic index is
    // a wall-clock optimization, not a change to the costs the §9.2
    // experiments charge to the virtual clock.
    ASSERT_EQ(cost_a.computations, cost_b.computations) << "step " << step;
    ASSERT_EQ(cost_a.comparisons, cost_b.comparisons) << "step " << step;
    ASSERT_EQ(cost_a.candidates, cost_b.candidates) << "step " << step;
    ASSERT_EQ(cost_a.chosen_priority, cost_b.chosen_priority)
        << "step " << step;
    if (!ok_a) continue;
    for (const int u : out_a) {
      units_a[static_cast<size_t>(u)].queue.pop_front();
      units_b[static_cast<size_t>(u)].queue.pop_front();
      kinetic.OnDequeue(u);
      scan.OnDequeue(u);
    }
  }
}

// n <= 128 keeps the index dense throughout; the larger traces fill past
// KineticIndex::kDenseMaxCapacity live lines and must reach tree mode.
TEST(KineticEquivalenceTest, LsfGoldenTrace) {
  for (const int n : {7, 60, 200, 500}) {
    SCOPED_TRACE(n);
    LsfScheduler kinetic;
    oracle::ScanLsfScheduler scan;
    bool saw_tree = false;
    RunGoldenTrace(kinetic, scan, n, 6000, 0x11F + static_cast<uint64_t>(n),
                   kinetic.index(), &saw_tree);
    EXPECT_EQ(saw_tree, n > KineticIndex::kDenseMaxCapacity);
  }
}

TEST(KineticEquivalenceTest, BsdGoldenTraceBothCountModes) {
  for (const bool count_all : {false, true}) {
    for (const int n : {7, 60, 200, 500}) {
      SCOPED_TRACE(n);
      BsdScheduler kinetic(count_all);
      oracle::ScanBsdScheduler scan(count_all);
      bool saw_tree = false;
      RunGoldenTrace(kinetic, scan, n, 6000,
                     0xB5D + static_cast<uint64_t>(n) + (count_all ? 1 : 0),
                     kinetic.index(), &saw_tree);
      EXPECT_EQ(saw_tree, n > KineticIndex::kDenseMaxCapacity);
    }
  }
}

TEST(KineticEquivalenceTest, ClusteredBsdGoldenTrace) {
  for (const bool clustered_processing : {false, true}) {
    for (const int n : {20, 60}) {
      ClusteredBsdOptions options;
      options.num_clusters = 6;
      options.clustered_processing = clustered_processing;
      ClusteredBsdScheduler kinetic(options);
      oracle::ScanClusteredBsdScheduler scan(options);
      bool saw_tree = false;
      RunGoldenTrace(kinetic, scan, n, 6000,
                     0xC1 + static_cast<uint64_t>(n) +
                         (clustered_processing ? 7 : 0),
                     kinetic.index(), &saw_tree);
      EXPECT_FALSE(saw_tree);  // six clusters: always the dense mode
    }
  }
}

// ---------------------------------------------------------------------------
// Full-simulation equality.

query::Workload SimWorkload(int queries, int64_t arrivals) {
  query::WorkloadConfig workload_config;
  workload_config.num_queries = queries;
  workload_config.num_arrivals = arrivals;
  workload_config.seed = 42;
  workload_config.utilization = 0.9;
  return query::GenerateWorkload(workload_config);
}

core::SimulationOptions SimOptions(bool charge_overhead) {
  core::SimulationOptions options;
  options.charge_scheduling_overhead = charge_overhead;
  return options;
}

/// The oracle twin of the production scheduler `config` creates.
std::unique_ptr<Scheduler> MakeOracle(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kLsf:
      return std::make_unique<oracle::ScanLsfScheduler>();
    case PolicyKind::kBsd:
      return std::make_unique<oracle::ScanBsdScheduler>(
          config.bsd_count_all_units);
    case PolicyKind::kBsdClustered:
      return std::make_unique<oracle::ScanClusteredBsdScheduler>(
          config.clustered);
    default:
      ADD_FAILURE() << "no scan oracle for " << PolicyKindName(config.kind);
      return nullptr;
  }
}

void ExpectSameRun(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.qos.tuples_emitted, b.qos.tuples_emitted);
  EXPECT_EQ(a.qos.avg_response, b.qos.avg_response);
  EXPECT_EQ(a.qos.avg_slowdown, b.qos.avg_slowdown);
  EXPECT_EQ(a.qos.max_slowdown, b.qos.max_slowdown);
  EXPECT_EQ(a.qos.l2_slowdown, b.qos.l2_slowdown);
  EXPECT_EQ(a.counters.scheduling_points, b.counters.scheduling_points);
  EXPECT_EQ(a.counters.priority_computations, b.counters.priority_computations);
  EXPECT_EQ(a.counters.decision_candidates, b.counters.decision_candidates);
  EXPECT_EQ(a.counters.overhead_operations, b.counters.overhead_operations);
  EXPECT_EQ(a.counters.overhead_time, b.counters.overhead_time);
  EXPECT_EQ(a.counters.end_time, b.counters.end_time);
}

TEST(KineticEquivalenceTest, SimulationBitIdenticalKineticOnOff) {
  // Production Simulate vs one engine driven by the scan oracle, both with
  // and without §9.2 overhead charging: the kinetic index must leave the
  // virtual clock — including the charged scheduling costs — untouched.
  const query::Workload workload = SimWorkload(24, 3000);
  for (const bool charge : {false, true}) {
    for (const PolicyKind kind :
         {PolicyKind::kLsf, PolicyKind::kBsd, PolicyKind::kBsdClustered}) {
      SCOPED_TRACE(PolicyKindName(kind));
      const auto config = PolicyConfig::Of(kind);
      const core::SimulationOptions options = SimOptions(charge);
      std::unique_ptr<Scheduler> scan = MakeOracle(config);
      ExpectSameRun(core::Simulate(workload, config, options),
                    oracle::SimulateWithScheduler(workload, config, options,
                                                  scan.get()));
    }
  }
}

TEST(KineticEquivalenceTest, TreeModeSimulationMatchesScanOracle) {
  // Enough queries that the ready set outgrows the dense mode: the index
  // must have replayed tree paths (node_recomputes > 0) and still match the
  // scan run field for field.
  const query::Workload workload = SimWorkload(200, 2000);
  const core::SimulationOptions options = SimOptions(/*charge=*/true);
  {
    const PolicyConfig config = PolicyConfig::Of(PolicyKind::kLsf);
    LsfScheduler kinetic;
    oracle::ScanLsfScheduler scan;
    ExpectSameRun(
        oracle::SimulateWithScheduler(workload, config, options, &kinetic),
        oracle::SimulateWithScheduler(workload, config, options, &scan));
    EXPECT_GT(kinetic.index().node_recomputes(), 0);
  }
  {
    const PolicyConfig config = PolicyConfig::Of(PolicyKind::kBsd);
    BsdScheduler kinetic(config.bsd_count_all_units);
    oracle::ScanBsdScheduler scan(config.bsd_count_all_units);
    ExpectSameRun(
        oracle::SimulateWithScheduler(workload, config, options, &kinetic),
        oracle::SimulateWithScheduler(workload, config, options, &scan));
    EXPECT_GT(kinetic.index().node_recomputes(), 0);
  }
}

}  // namespace
}  // namespace aqsios::sched
