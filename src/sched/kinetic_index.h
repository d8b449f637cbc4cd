// Kinetic tournament index over linearly-growing priorities.
//
// The time-varying policies (LSF, BSD, clustered BSD) assign every ready
// unit a priority that is a *linear function of the virtual clock*:
//
//   LSF:        p_u(t) = (t - a_u) / T_u            (slope 1/T_u)
//   BSD:        p_u(t) = phi_u * (t - a_u)          (slope phi_u)
//   clustered:  p_c(t) = pseudo_c * (t - head_c)    (slope pseudo_c)
//
// where a_u is the head tuple's arrival time. The argmax over ready units is
// therefore an upper-envelope query, which a kinetic tournament answers in
// O(log n) amortized instead of the naive O(n) scan per scheduling point:
// a complete binary tree holds one leaf per unit; each internal node caches
// its subtree's winning line inline (anchor, coef, slope, tie, id — a match
// reads its two children and nothing else) plus a *certificate*: the
// earliest time the losing line could overtake the winning line. Insert
// and Erase replay their leaf-to-root path at once, in one bottom-up loop
// evaluated at the latest query time, so the tree is always consistent and
// ArgMax(now) only re-decides matches whose certificates have expired.
// Clear resets only the non-empty nodes, so clearing a sparse tree costs its
// live lines rather than its capacity.
//
// The index is a hybrid that picks its mode from its live lines, not its
// capacity. It starts dense: no tree at all, and ArgMax is one exact
// evaluation per live line over flat arrays (see kDenseMaxCapacity for why
// small n favours that). An insert that takes it past kDenseMaxCapacity
// live lines builds the tournament bottom-up at the latest query time; an
// erase that leaves kDenseMinLines or fewer moves the survivors back into
// the flat arrays; Clear returns it to dense. The gap between the two
// thresholds keeps a live count hovering near one of them from switching
// back and forth. So an index sized for a whole plan but holding a handful
// of ready units (a shard engine of an elastic run) never replays tree
// paths. Both modes implement identical semantics; which one answers is
// invisible to callers except through dense()/node_recomputes().
//
// Bit-identical contract: the index must return exactly the unit the
// paper's linear scan would return (the scan oracles in
// tests/scan_schedulers.h), including its priority *value* with identical
// floating-point rounding. Two rules make that hold:
//
//  1. Matches are decided by evaluating the scan's own arithmetic
//     (EvalMode::kRatio = `(t - anchor) / coef`, EvalMode::kScaled =
//     `coef * (t - anchor)`), never by rearranged line algebra. Certificates
//     are merely conservative *re-check times*; a pessimistic certificate
//     costs a re-evaluation, never a wrong answer. A path replayed at
//     mutation time may match lines anchored after the latest query time
//     (negative priorities); their certificate expires at the crossover, so
//     a later query re-decides the match at its own time.
//  2. Ties reproduce the scan's iteration order: the scan iterates an
//     ordered set and keeps the first maximum (strict `>`), so ties go to
//     the smallest (tie_key, id) pair. LSF/BSD pass tie_key = 0 (lowest id
//     wins, matching std::set<int>); clustered BSD passes tie_key =
//     head time (matching its std::set<pair<SimTime, cluster>>).
//
// Certificates are computed from the algebraic crossover of the two lines
// minus a relative safety margin of 1e-9 (orders of magnitude wider than
// the rounding error of the certificate arithmetic), clamped to be no
// earlier than the evaluation time; a certificate that keeps landing at
// "now" simply degrades that node to re-check-per-query, which is the safe
// direction.

#ifndef AQSIOS_SCHED_KINETIC_INDEX_H_
#define AQSIOS_SCHED_KINETIC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/sim_time.h"

namespace aqsios::sched {

class KineticIndex {
 public:
  enum class EvalMode {
    /// p(t) = (t - anchor) / coef — LSF's HeadWait(now) / ideal_time.
    kRatio,
    /// p(t) = coef * (t - anchor) — BSD's phi * HeadWait(now) and the
    /// clustered pseudo_priority * (now - head_time).
    kScaled,
  };

  explicit KineticIndex(EvalMode mode) : mode_(mode) {}

  /// Pre-sizes the index for ids in [0, max_ids), empties it into dense
  /// mode and restarts its clock (a new run may start earlier than the last
  /// query). The index grows on demand if a larger id is inserted later.
  void Reserve(int max_ids);

  /// Removes all entries and returns to dense mode (capacity and clock are
  /// kept).
  void Clear();

  /// Inserts id with the given line, or re-keys it if already present.
  /// `coef` must be > 0 (priorities are nonnegative and increasing).
  void Insert(int id, double anchor, double coef, double tie_key = 0.0);

  /// Removes id; no-op when absent.
  void Erase(int id);

  bool Contains(int id) const {
    if (id < 0 || id >= capacity_) return false;
    return dense_ ? dense_pos_[static_cast<size_t>(id)] >= 0
                  : nodes_[static_cast<size_t>(capacity_ + id)].line.id >= 0;
  }

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  /// Returns the id maximizing p(now) — ties broken by smallest
  /// (tie_key, id) — and stores its priority, computed with the scan's exact
  /// arithmetic, into *priority when non-null. -1 when empty. `now` must be
  /// non-decreasing across calls (the simulation clock is monotone).
  int ArgMax(SimTime now, double* priority = nullptr);

  /// Internal-node recomputations since construction — the work an ArgMax /
  /// Insert / Erase actually did (test + benchmark introspection; a valid
  /// root certificate makes ArgMax O(1)). Always 0 while the index is in
  /// its dense small-n mode, which keeps no tree at all.
  int64_t node_recomputes() const { return node_recomputes_; }

  /// Whether the index is currently answering queries with the dense linear
  /// fast path instead of the tournament tree (introspection).
  bool dense() const { return dense_; }

  /// Full wipes (Clear calls) since construction. The calibration re-key
  /// path must never trigger one — tests pin this counter to prove re-keys
  /// stay incremental (Insert-on-existing-id replays one leaf-to-root path)
  /// instead of degenerating into rebuild-the-world.
  int64_t clears() const { return clears_; }

  /// Most live lines the dense mode holds; one more builds the tree. Below
  /// this count the tournament's ~log n match replays per re-key cost more
  /// than simply evaluating every line over a flat array (a pick re-keys the
  /// picked unit, which was the winner of every match on its leaf-to-root
  /// path, so the whole path must be replayed — certificates cannot save
  /// it).
  /// Measured on recorded §8 testbed index traces (docs/performance.md):
  /// BSD's crossover lies between 128 and 200 queries (dense 699 vs tree
  /// 714 ticks per pick at 128, 959 vs 812 at 200); LSF's divide-per-line
  /// scan already loses to the tree at 60 queries (417 vs 311).
  /// The count is live lines, not capacity: an index reserved for 1024 ids
  /// that holds two ready units scans two lines. One threshold serves both
  /// eval modes (docs/performance.md, "The dense small-n mode").
  static constexpr int kDenseMaxCapacity = 128;

  /// An erase that leaves this many live lines or fewer returns the index
  /// to dense mode; a quarter of kDenseMaxCapacity, so a tree is only torn
  /// down after most of the lines that built it are gone.
  static constexpr int kDenseMinLines = 32;

 private:
  /// A line p(t) and its owner. `slope` is d p / d t: 1/coef (kRatio) or
  /// coef (kScaled); `id` is -1 for an empty leaf or subtree.
  struct Line {
    double anchor = 0.0;
    double coef = 1.0;
    double slope = 0.0;
    double tie = 0.0;
    int id = -1;
  };

  /// Tournament node: the subtree's winning line, the earliest time this
  /// node's match can flip, and the minimum of that over the subtree. Nodes
  /// 1..2*capacity_-1, leaves at capacity_ + slot with +inf expiries.
  struct Node {
    Line line;
    double match_exp = kNever;
    double subtree_exp = kNever;
  };
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  template <EvalMode kMode>
  static double Eval(const Line& line, double t) {
    return kMode == EvalMode::kRatio ? (t - line.anchor) / line.coef
                                     : line.coef * (t - line.anchor);
  }

  /// Decides the match of left child `l` against `r` at time `t`: returns
  /// the winner and stores the certificate in *match_exp. Every tree walk
  /// uses it, instantiated per mode so no walk branches on mode_.
  template <EvalMode kMode>
  static const Line& Match(const Line& l, const Line& r, double t,
                           double* match_exp);

  /// Re-decides internal node `node`'s match from its children at time `t`:
  /// winner line, match certificate and subtree expiry.
  template <EvalMode kMode>
  void RecomputeNode(size_t node, double t);

  /// Replays the matches on the path above leaf node `leaf` at last_time_;
  /// the climbing winner stays in registers, each level loads its sibling.
  template <EvalMode kMode>
  void ReplayPath(size_t leaf);

  /// Re-decides every expired match under internal node `node` (whose
  /// subtree expiry has passed) and returns whether its winner changed.
  /// Recurses only into expired children.
  template <EvalMode kMode>
  bool RefreshNode(size_t node, double now);

  /// Lays the live lines out as the leaves of a `capacity`-leaf tree (from
  /// the packed dense arrays or the current tree's leaf row) and builds the
  /// tree bottom-up at last_time_. Serves both the dense-to-tree switch and
  /// tree growth past capacity.
  void BuildTree(int capacity);

  /// Appends every live leaf under `node` to the packed dense arrays,
  /// walking only non-empty subtrees (the tree-to-dense switch).
  void CollectLines(size_t node);

  /// Appends one line to the packed dense arrays (size_ is the caller's).
  void AppendDense(int id, double anchor, double coef, double tie);

  /// Resets every non-empty node under `node` to empty.
  void ClearSubtree(size_t node);

  /// Dense-mode ArgMax: one exact Eval per live id, running lexicographic
  /// (priority desc, tie asc, id asc) best — identical semantics to the
  /// tree, with zero maintenance on Insert/Erase.
  int DenseArgMax(SimTime now, double* priority);

  EvalMode mode_;
  bool dense_ = true;  // the live count decides; see kDenseMaxCapacity
  int capacity_ = 0;  // leaf slots, power of two (0 until first Reserve)
  int size_ = 0;
  /// Latest ArgMax query time; Insert, Erase and growth evaluate their
  /// matches here (the clock is monotone, so this is the freshest point).
  double last_time_ = 0.0;
  int64_t node_recomputes_ = 0;
  int64_t clears_ = 0;

  /// Tree mode: 2 * capacity_ nodes. Dense mode: every node empty (sized
  /// for an earlier tree, or not at all), so the next switch writes leaves
  /// only.
  std::vector<Node> nodes_;
  /// Dense mode: the live ids in arbitrary order (swap-removed), each id's
  /// position in that list (-1 when absent; -1 for every id in tree mode),
  /// and the live lines packed in the same order as parallel arrays — the
  /// ArgMax scan walks contiguous memory with no per-element indirection.
  std::vector<int> dense_ids_;
  std::vector<int> dense_pos_;
  std::vector<double> dense_anchor_;
  std::vector<double> dense_coef_;
  std::vector<double> dense_tie_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_KINETIC_INDEX_H_
