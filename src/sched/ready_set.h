// A dense ordered ready-set over unit ids [0, n).
//
// The cursor/rank-ordered schedulers (RR, the static-priority family) only
// ever need three operations on their ready set: membership updates, "first
// ready id", and "first ready id at or after a cursor, wrapping around".
// A bitmap with find-first-set gives all three in a handful of word
// operations with zero allocation — unlike std::set, whose per-insert node
// allocation dominates the pick path at simulation rates (~10^6 decisions
// per sweep cell). Iteration order (ascending id) matches std::set<int>, so
// swapping it in preserves every pick sequence bit for bit. A hint on the
// lowest non-empty word makes First() O(1) and Erase amortized O(1) for the
// static-priority pick pattern (take the first member, erase it once its
// queue drains), instead of a scan from word 0 on every pick.

#ifndef AQSIOS_SCHED_READY_SET_H_
#define AQSIOS_SCHED_READY_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqsios::sched {

class OrderedReadySet {
 public:
  /// Resets to the empty set over the id universe [0, n).
  void Reset(int n) {
    n_ = n;
    words_.assign(static_cast<size_t>((n + 63) / 64), 0);
    low_ = words_.size();
  }

  void Insert(int id) {
    const size_t w = static_cast<size_t>(id >> 6);
    words_[w] |= 1ull << (id & 63);
    if (w < low_) low_ = w;
  }

  void Erase(int id) {
    const size_t w = static_cast<size_t>(id >> 6);
    uint64_t& word = words_[w];
    word &= ~(1ull << (id & 63));
    // Emptying the lowest non-empty word moves the hint to the next
    // non-empty one: the scan First() would otherwise repeat on every pick.
    if (word == 0 && w == low_) {
      while (low_ < words_.size() && words_[low_] == 0) ++low_;
    }
  }

  bool Contains(int id) const {
    return (words_[static_cast<size_t>(id >> 6)] >> (id & 63)) & 1;
  }

  bool empty() const { return low_ == words_.size(); }

  /// Smallest member, or -1 when empty. O(1): reads the lowest non-empty
  /// word the hint names.
  int First() const {
    if (low_ == words_.size()) return -1;
    return static_cast<int>(low_ * 64) + __builtin_ctzll(words_[low_]);
  }

  /// Smallest member >= from, or -1 when there is none.
  int FirstAtOrAfter(int from) const {
    if (from >= n_) return -1;
    size_t w = static_cast<size_t>(from >> 6);
    if (w < low_) return First();
    uint64_t word = words_[w] & (~0ull << (from & 63));
    while (true) {
      if (word != 0) {
        return static_cast<int>(w * 64) + __builtin_ctzll(word);
      }
      if (++w == words_.size()) return -1;
      word = words_[w];
    }
  }

  /// Smallest member >= from, wrapping to First() past the end; -1 when
  /// empty. This is exactly the order a modular cursor scan visits ids in.
  int FirstCyclic(int from) const {
    const int at_or_after = FirstAtOrAfter(from);
    return at_or_after >= 0 ? at_or_after : First();
  }

 private:
  int n_ = 0;
  std::vector<uint64_t> words_;
  /// Index of the lowest non-empty word (words_.size() when empty); every
  /// word below it is zero.
  size_t low_ = 0;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_READY_SET_H_
