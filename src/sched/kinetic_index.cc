#include "sched/kinetic_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aqsios::sched {

void KineticIndex::Reserve(int max_ids) {
  int capacity = 1;
  while (capacity < max_ids) capacity <<= 1;
  dense_ = true;
  last_time_ = 0.0;
  capacity_ = capacity;
  dense_ids_.clear();
  dense_pos_.assign(static_cast<size_t>(capacity_), -1);
  dense_anchor_.clear();
  dense_coef_.clear();
  dense_tie_.clear();
  nodes_.clear();
  size_ = 0;
}

void KineticIndex::Clear() {
  ++clears_;
  for (const int id : dense_ids_) dense_pos_[static_cast<size_t>(id)] = -1;
  dense_ids_.clear();
  dense_anchor_.clear();
  dense_coef_.clear();
  dense_tie_.clear();
  if (!dense_) ClearSubtree(1);
  dense_ = true;
  size_ = 0;
}

void KineticIndex::ClearSubtree(size_t node) {
  // A node is non-empty exactly when a live leaf lies below it, so this
  // visits only the live lines' paths: a resync that clears a sparse tree
  // costs its live lines, not its capacity.
  if (nodes_[node].line.id < 0) return;
  nodes_[node] = Node{};
  if (node < static_cast<size_t>(capacity_)) {
    ClearSubtree(node << 1);
    ClearSubtree((node << 1) | 1);
  }
}

void KineticIndex::AppendDense(int id, double anchor, double coef,
                               double tie) {
  dense_pos_[static_cast<size_t>(id)] = static_cast<int>(dense_ids_.size());
  dense_ids_.push_back(id);
  dense_anchor_.push_back(anchor);
  dense_coef_.push_back(coef);
  dense_tie_.push_back(tie);
}

void KineticIndex::BuildTree(int capacity) {
  const size_t leaves = static_cast<size_t>(capacity);
  if (dense_) {
    // Dense mode keeps every node empty, so only the live leaves are
    // written; the packed arrays empty into them.
    nodes_.resize(leaves * 2);
    for (size_t pos = 0; pos < dense_ids_.size(); ++pos) {
      const int id = dense_ids_[pos];
      const double coef = dense_coef_[pos];
      nodes_[leaves + static_cast<size_t>(id)].line =
          Line{dense_anchor_[pos], coef,
               mode_ == EvalMode::kRatio ? 1.0 / coef : coef, dense_tie_[pos],
               id};
      dense_pos_[static_cast<size_t>(id)] = -1;
    }
    dense_ = false;
    dense_ids_.clear();
    dense_anchor_.clear();
    dense_coef_.clear();
    dense_tie_.clear();
  } else {
    // Growth: the old leaf row moves to the front of the new one.
    std::vector<Node> nodes(leaves * 2, Node{});
    std::copy(nodes_.begin() + capacity_, nodes_.begin() + 2 * capacity_,
              nodes.begin() + capacity);
    nodes_.swap(nodes);
  }
  capacity_ = capacity;
  dense_pos_.resize(leaves, -1);
  for (size_t node = leaves - 1; node >= 1; --node) {
    mode_ == EvalMode::kRatio
        ? RecomputeNode<EvalMode::kRatio>(node, last_time_)
        : RecomputeNode<EvalMode::kScaled>(node, last_time_);
  }
}

void KineticIndex::CollectLines(size_t node) {
  const Line& line = nodes_[node].line;
  if (line.id < 0) return;
  if (node >= static_cast<size_t>(capacity_)) {
    AppendDense(line.id, line.anchor, line.coef, line.tie);
    return;
  }
  CollectLines(node << 1);
  CollectLines((node << 1) | 1);
}

void KineticIndex::Insert(int id, double anchor, double coef,
                          double tie_key) {
  AQSIOS_DCHECK_GE(id, 0);
  AQSIOS_DCHECK_GT(coef, 0.0);
  if (id >= capacity_) {
    int capacity = capacity_ == 0 ? 1 : capacity_;
    while (capacity <= id) capacity <<= 1;
    if (dense_) {
      capacity_ = capacity;
      dense_pos_.resize(static_cast<size_t>(capacity), -1);
    } else {
      BuildTree(capacity);
    }
  }
  const size_t slot = static_cast<size_t>(id);
  if (dense_) {
    if (dense_pos_[slot] < 0) {
      AppendDense(id, anchor, coef, tie_key);
      if (++size_ > kDenseMaxCapacity) BuildTree(capacity_);
    } else {
      const size_t pos = static_cast<size_t>(dense_pos_[slot]);
      dense_anchor_[pos] = anchor;
      dense_coef_[pos] = coef;
      dense_tie_[pos] = tie_key;
    }
    return;
  }
  size_t node = static_cast<size_t>(capacity_) + slot;
  Line& leaf = nodes_[node].line;
  if (leaf.id < 0) ++size_;
  leaf = Line{anchor, coef, mode_ == EvalMode::kRatio ? 1.0 / coef : coef,
              tie_key, id};
  mode_ == EvalMode::kRatio ? ReplayPath<EvalMode::kRatio>(node)
                            : ReplayPath<EvalMode::kScaled>(node);
}

void KineticIndex::Erase(int id) {
  if (!Contains(id)) return;
  --size_;
  if (dense_) {
    const size_t pos = static_cast<size_t>(dense_pos_[static_cast<size_t>(id)]);
    const int last = dense_ids_.back();
    dense_ids_[pos] = last;
    dense_anchor_[pos] = dense_anchor_.back();
    dense_coef_[pos] = dense_coef_.back();
    dense_tie_[pos] = dense_tie_.back();
    dense_pos_[static_cast<size_t>(last)] = static_cast<int>(pos);
    dense_ids_.pop_back();
    dense_anchor_.pop_back();
    dense_coef_.pop_back();
    dense_tie_.pop_back();
    dense_pos_[static_cast<size_t>(id)] = -1;
    return;
  }
  size_t node = static_cast<size_t>(capacity_ + id);
  nodes_[node].line.id = -1;
  if (size_ <= kDenseMinLines) {
    // Back to dense. The path is not replayed: its nodes still name the
    // erased line, so both walks visit them, find the empty leaf, and
    // ClearSubtree resets them with the rest.
    CollectLines(1);
    ClearSubtree(1);
    dense_ = true;
  } else {
    mode_ == EvalMode::kRatio ? ReplayPath<EvalMode::kRatio>(node)
                              : ReplayPath<EvalMode::kScaled>(node);
  }
}

// Inlined into every walk, so each keeps its operands in registers.
template <KineticIndex::EvalMode kMode>
[[gnu::always_inline]] inline const KineticIndex::Line& KineticIndex::Match(
    const Line& l, const Line& r, double t, double* match_exp) {
  *match_exp = kNever;
  if (l.id < 0 || r.id < 0) return l.id < 0 ? r : l;
  const double pl = Eval<kMode>(l, t);
  const double pr = Eval<kMode>(r, t);
  bool left_wins;
  if (pl != pr) {
    left_wins = pl > pr;
  } else if (l.tie != r.tie) {
    left_wins = l.tie < r.tie;
  } else {
    left_wins = l.id < r.id;
  }
  const Line& winner = left_wins ? l : r;
  const Line& lo = left_wins ? r : l;
  if (lo.slope > winner.slope) {
    // The losing line is steeper: it overtakes at the algebraic crossover
    // tc. Re-check a relative margin early; never certify past-the-present
    // validity (a certificate at `t` means "re-check on the next query").
    const double tc = (lo.slope * lo.anchor - winner.slope * winner.anchor) /
                      (lo.slope - winner.slope);
    const double cert = tc - 1e-9 * std::max(1.0, std::abs(tc));
    *match_exp = cert > t ? cert : t;
  }
  return winner;
}

template <KineticIndex::EvalMode kMode>
void KineticIndex::RecomputeNode(size_t node, double t) {
  ++node_recomputes_;
  const Node& l = nodes_[node << 1];
  const Node& r = nodes_[(node << 1) | 1];
  double match_exp;
  const Line winner = Match<kMode>(l.line, r.line, t, &match_exp);
  const double subtree_exp =
      std::min(match_exp, std::min(l.subtree_exp, r.subtree_exp));
  nodes_[node] = Node{winner, match_exp, subtree_exp};
}

template <KineticIndex::EvalMode kMode>
void KineticIndex::ReplayPath(size_t leaf) {
  Line line = nodes_[leaf].line;
  double exp = kNever;  // a leaf's subtree expiry
  for (size_t node = leaf; node > 1; node >>= 1) {
    ++node_recomputes_;
    // The climbing line keeps its side: an even node is a left child.
    const Node& sibling = nodes_[node ^ 1];
    const bool left = (node & 1) == 0;
    double match_exp;
    line = left ? Match<kMode>(line, sibling.line, last_time_, &match_exp)
                : Match<kMode>(sibling.line, line, last_time_, &match_exp);
    exp = left ? std::min(match_exp, std::min(exp, sibling.subtree_exp))
               : std::min(match_exp, std::min(sibling.subtree_exp, exp));
    nodes_[node >> 1] = Node{line, match_exp, exp};
  }
}

template <KineticIndex::EvalMode kMode>
bool KineticIndex::RefreshNode(size_t node, double now) {
  // Leaves never expire, so only internal children are ever entered. Every
  // mutation has already been replayed, so a child whose winner id is
  // unchanged also has an unchanged line.
  const size_t l = node << 1;
  bool child_changed = false;
  if (nodes_[l].subtree_exp <= now) child_changed = RefreshNode<kMode>(l, now);
  if (nodes_[l | 1].subtree_exp <= now) {
    child_changed = RefreshNode<kMode>(l | 1, now) || child_changed;
  }
  Node& n = nodes_[node];
  if (!child_changed && n.match_exp > now) {
    // Only descendants' expiries moved; the cached match is intact.
    n.subtree_exp = std::min(n.match_exp, std::min(nodes_[l].subtree_exp,
                                                   nodes_[l | 1].subtree_exp));
    return false;
  }
  const int old_winner = n.line.id;
  RecomputeNode<kMode>(node, now);
  return n.line.id != old_winner;
}

int KineticIndex::DenseArgMax(SimTime now, double* priority) {
  // Walks the packed parallel arrays — contiguous loads, no id indirection
  // on the hot comparisons; ids are only consulted to break exact ties.
  const size_t n = dense_ids_.size();
  const double* const anchor = dense_anchor_.data();
  const double* const coef = dense_coef_.data();
  const bool ratio = mode_ == EvalMode::kRatio;
  size_t best_pos = 0;
  double best_priority = ratio ? (now - anchor[0]) / coef[0]
                               : coef[0] * (now - anchor[0]);
  for (size_t k = 1; k < n; ++k) {
    const double p = ratio ? (now - anchor[k]) / coef[k]
                           : coef[k] * (now - anchor[k]);
    if (p > best_priority) {
      best_pos = k;
      best_priority = p;
    } else if (p == best_priority) {
      // Exact tie under the scan's own arithmetic: smallest (tie, id) wins,
      // independent of the swap-removal order of the packed arrays.
      if (dense_tie_[k] < dense_tie_[best_pos] ||
          (dense_tie_[k] == dense_tie_[best_pos] &&
           dense_ids_[k] < dense_ids_[best_pos])) {
        best_pos = k;
      }
    }
  }
  if (priority != nullptr) *priority = best_priority;
  return dense_ids_[best_pos];
}

int KineticIndex::ArgMax(SimTime now, double* priority) {
  if (size_ == 0) return -1;
  last_time_ = now;
  if (dense_) return DenseArgMax(now, priority);
  const bool ratio = mode_ == EvalMode::kRatio;
  if (nodes_[1].subtree_exp <= now) {
    ratio ? RefreshNode<EvalMode::kRatio>(1, now)
          : RefreshNode<EvalMode::kScaled>(1, now);
  }
  const Line& winner = nodes_[1].line;
  if (priority != nullptr) {
    *priority = ratio ? Eval<EvalMode::kRatio>(winner, now)
                      : Eval<EvalMode::kScaled>(winner, now);
  }
  return winner.id;
}

}  // namespace aqsios::sched
