// Symmetric hash join state for time-based sliding-window joins (§5).
//
// One instance per window-join operator. Tuples that survive their pre-join
// segment are hashed into their side's table and probe the opposite table
// for key matches within the window interval V (|ts_probe − ts_entry| ≤ V).
// Expired entries (older than probe − V) are evicted lazily during probes;
// this is safe because each side's tuples are processed in arrival order, so
// the probe timestamps hitting one table are non-decreasing. Inserts do not
// evict: the inserting side's timestamps say nothing about what the (possibly
// delayed) opposite side still needs to match.
//
// Bucket storage is arena-pooled (common/arena.h): each bucket is an
// intrusive FIFO list of nodes drawn from a per-state ObjectPool, so the
// steady-state insert/evict churn of the sliding window touches no heap
// allocator and consecutive inserts land contiguously. Iteration order is
// exactly the per-bucket insertion (FIFO) order the previous deque-based
// storage had, so probe results are unchanged bit for bit.

#ifndef AQSIOS_EXEC_WINDOW_JOIN_H_
#define AQSIOS_EXEC_WINDOW_JOIN_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/sim_time.h"
#include "query/query.h"
#include "stream/tuple.h"

namespace aqsios::exec {

class SymmetricHashJoinState {
 public:
  struct Entry {
    stream::ArrivalId id = 0;
    /// Source timestamp used by the window predicate; for composite
    /// entries, the max over constituents.
    SimTime timestamp = 0.0;
    /// System arrival time A_i (max over constituents for composites).
    SimTime arrival_time = 0.0;
    /// Earliest constituent arrival (min over constituents; == arrival_time
    /// for base tuples). arrival_time − first_arrival_time is the §5.1.2
    /// dependency delay the slowdown definition excludes.
    SimTime first_arrival_time = 0.0;
    /// Order-independent identity for frozen match draws: the arrival id
    /// for base tuples, a mix of constituent identities for composites.
    uint64_t identity = 0;
    /// Join input index of the latest-arriving constituent (slowdown
    /// trigger attribution in multi-join pipelines).
    int trigger_input = 0;
  };

  /// Time-based window. `ordered` declares that per-side insert timestamps
  /// AND per-table probe timestamps are non-decreasing, enabling window
  /// eviction. Stages fed by composites (whose timestamps are not monotone)
  /// must pass false; probes then scan the whole bucket and nothing is
  /// evicted.
  explicit SymmetricHashJoinState(SimTime window_seconds, bool ordered = true);

  /// Bucket nodes are pool-owned raw pointers: movable (arena chunks are
  /// address-stable), but not copyable.
  SymmetricHashJoinState(SymmetricHashJoinState&&) noexcept = default;
  SymmetricHashJoinState& operator=(SymmetricHashJoinState&&) noexcept =
      default;
  SymmetricHashJoinState(const SymmetricHashJoinState&) = delete;
  SymmetricHashJoinState& operator=(const SymmetricHashJoinState&) = delete;

  /// Tuple-count window: each side retains exactly its last `window_rows`
  /// inserted entries (CQL ROWS semantics); probes match all residents of
  /// the opposite side's bucket. (A named factory rather than a constructor
  /// so integer literals never collide with the SimTime overload.)
  static SymmetricHashJoinState RowWindow(int64_t window_rows);

  /// Inserts a surviving tuple into `side`'s hash table.
  void Insert(query::Side side, int32_t key, const Entry& entry);

  /// Collects the opposite table's entries matching `key` whose timestamps
  /// are within the window of `timestamp`. Entries expired relative to
  /// `timestamp` are evicted.
  void Probe(query::Side side, int32_t key, SimTime timestamp,
             std::vector<Entry>* candidates);

  /// Number of resident entries on `side`.
  int64_t size(query::Side side) const;

 private:
  enum class WindowKind { kTime, kRow };

  SymmetricHashJoinState() = default;  // used by the RowWindow factory

  /// One resident tuple; storage comes from pool_, never the heap directly.
  struct Node {
    Entry entry;
    Node* next = nullptr;
  };

  /// FIFO bucket as an intrusive singly-linked list of pooled nodes. Head is
  /// the oldest insert (the eviction point), appends go to the tail, so a
  /// head-to-tail walk reproduces the old deque's iteration order exactly.
  struct Bucket {
    Node* head = nullptr;
    Node* tail = nullptr;
    bool empty() const { return head == nullptr; }
  };

  struct Table {
    std::unordered_map<int32_t, Bucket> buckets;
    /// Row windows: join keys in insertion order, for oldest-first eviction.
    std::deque<int32_t> insertion_order;
    int64_t size = 0;
  };

  Table& table(query::Side side) {
    return side == query::Side::kLeft ? left_ : right_;
  }
  const Table& table(query::Side side) const {
    return side == query::Side::kLeft ? left_ : right_;
  }

  /// Appends `entry` to the bucket tail (callers account Table::size).
  void PushBack(Bucket& bucket, const Entry& entry);
  /// Releases the bucket head back to the pool and decrements `t.size`.
  void PopFront(Table& t, Bucket& bucket);

  /// Drops entries in `bucket` with timestamp < horizon (from the head;
  /// entries are inserted in non-decreasing timestamp order per side).
  void EvictExpired(Table& t, Bucket& bucket, SimTime horizon);

  WindowKind kind_ = WindowKind::kTime;
  SimTime window_ = 0.0;
  int64_t window_rows_ = 0;
  bool ordered_ = true;
  /// One node pool for both sides; reclaimed wholesale with the state.
  ObjectPool<Node> pool_;
  Table left_;
  Table right_;
};

}  // namespace aqsios::exec

#endif  // AQSIOS_EXEC_WINDOW_JOIN_H_
