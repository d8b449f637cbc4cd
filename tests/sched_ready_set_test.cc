// OrderedReadySet against a std::set<int> oracle: random Insert / Erase /
// Reset / First / FirstAtOrAfter / FirstCyclic sequences, with the erasures
// and insertions around the lowest-non-empty-word hint First() reads.

#include "sched/ready_set.h"

#include <iterator>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace aqsios::sched {
namespace {

int OracleFirstAtOrAfter(const std::set<int>& oracle, int from) {
  const auto it = oracle.lower_bound(from);
  return it == oracle.end() ? -1 : *it;
}

void ExpectSame(const OrderedReadySet& set, const std::set<int>& oracle,
                int n, Rng& rng) {
  ASSERT_EQ(set.empty(), oracle.empty());
  const int probe = static_cast<int>(rng.UniformInt(0, n - 1));
  ASSERT_EQ(set.Contains(probe), oracle.count(probe) == 1);
  ASSERT_EQ(set.First(), oracle.empty() ? -1 : *oracle.begin());
  const int from = static_cast<int>(rng.UniformInt(0, n));
  ASSERT_EQ(set.FirstAtOrAfter(from), OracleFirstAtOrAfter(oracle, from))
      << "from " << from;
  const int at_or_after = OracleFirstAtOrAfter(oracle, from);
  ASSERT_EQ(set.FirstCyclic(from),
            at_or_after >= 0 ? at_or_after
                             : (oracle.empty() ? -1 : *oracle.begin()));
}

TEST(OrderedReadySetTest, MatchesSetOracleUnderRandomChurn) {
  Rng rng(2006);
  for (const int n : {1, 63, 64, 65, 500, 2000}) {
    OrderedReadySet set;
    std::set<int> oracle;
    set.Reset(n);
    for (int step = 0; step < 20000; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      if (op < 40) {
        const int id = static_cast<int>(rng.UniformInt(0, n - 1));
        set.Insert(id);
        oracle.insert(id);
      } else if (op < 75) {
        const int id = static_cast<int>(rng.UniformInt(0, n - 1));
        set.Erase(id);
        oracle.erase(id);
      } else if (op < 90) {
        // The static-priority pick: erase the current first member.
        if (!oracle.empty()) {
          const int first = set.First();
          set.Erase(first);
          oracle.erase(first);
        }
      } else if (op < 99) {
        // Insert below the current first member (below the hint's word
        // when the first member is past word 0).
        if (!oracle.empty() && *oracle.begin() > 0) {
          const int id =
              static_cast<int>(rng.UniformInt(0, *oracle.begin() - 1));
          set.Insert(id);
          oracle.insert(id);
        }
      } else {
        set.Reset(n);
        oracle.clear();
      }
      ExpectSame(set, oracle, n, rng);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "n " << n << " step " << step;
      }
    }
  }
}

TEST(OrderedReadySetTest, HintFollowsDrainAndRefillAcrossWords) {
  OrderedReadySet set;
  set.Reset(300);
  for (const int id : {5, 70, 200, 299}) set.Insert(id);
  EXPECT_EQ(set.First(), 5);
  set.Erase(5);  // empties word 0: the hint moves to word 1
  EXPECT_EQ(set.First(), 70);
  set.Erase(70);
  set.Erase(200);
  EXPECT_EQ(set.First(), 299);
  set.Insert(3);  // below the hint
  EXPECT_EQ(set.First(), 3);
  EXPECT_EQ(set.FirstAtOrAfter(4), 299);
  set.Erase(3);
  set.Erase(299);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.First(), -1);
  EXPECT_EQ(set.FirstCyclic(10), -1);
}

}  // namespace
}  // namespace aqsios::sched
