// Hosts ordered by sampled load, the order FE placement reads them in
// (DESIGN.md §14): a tournament (min) tree over a dense per-host load
// array. Every internal node names the host with the least (load, node id)
// below it, so
//
//  * set() rewrites one host's load and replays only that host's path to
//    the root, O(log n), and stops early once the path's winners stand;
//  * search() visits the hosts of a node range [first, last) whose subtree
//    minimum the caller still admits, descending the winner's side first.
//    A subtree whose least host the caller rejects is skipped whole, so a
//    placement that stops admitting after `count` hosts reads about
//    `count` plus the hosts it skips, and O(log n) tree nodes for each,
//    instead of every host.
//
// The index knows nothing of tiers, crashes or keys: callers pass ranges
// and a monotone admission test, and decide at each visited host. This
// header depends on nothing in the project, so core/ and tests use it
// freely.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nezha::policy {

class LoadIndex {
 public:
  std::size_t size() const { return load_.size(); }
  double load(std::uint32_t node) const { return load_[node]; }

  /// Appends host size() with `load`.
  void push_back(double load);
  /// Sets `node`'s load: the one way a load changes once a host is in.
  void set(std::uint32_t node, double load);

  /// Calls visit(node, load) for hosts in [first, last) (clipped to size()).
  /// `admits(load, node)` must be monotone in (load, node) order — once it
  /// rejects a pair it rejects every greater pair — and may only grow
  /// stricter as visits proceed; a subtree whose least pair it rejects is
  /// skipped. Visits run winner-first, not in sorted order, so the caller
  /// must keep whatever is best regardless of the order it is offered in.
  template <typename Admits, typename Visit>
  void search(std::uint32_t first, std::uint32_t last, Admits&& admits,
              Visit&& visit) const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The host with the lesser (load, node), kNone counting as +infinity.
  std::uint32_t better(std::uint32_t a, std::uint32_t b) const {
    if (a == kNone) return b;
    if (b == kNone) return a;
    if (load_[a] != load_[b]) return load_[a] < load_[b] ? a : b;
    return a < b ? a : b;
  }

  std::vector<double> load_;
  // winner_[v] for v in [1, 2 * leaves_): the least host below v; leaf
  // leaves_ + i is host i. Leaves past size() hold kNone.
  std::vector<std::uint32_t> winner_;
  std::uint32_t leaves_ = 0;  // a power of two >= size(), 0 when empty
};

template <typename Admits, typename Visit>
void LoadIndex::search(std::uint32_t first, std::uint32_t last,
                       Admits&& admits, Visit&& visit) const {
  if (first >= last || leaves_ == 0) return;
  // Depth-first with both children pushed, so at most one pending sibling
  // per level (32 levels cover every 32-bit node id).
  struct Frame {
    std::uint32_t v;
    std::uint32_t lo;     // first host below v
    std::uint32_t width;  // leaves below v
  };
  std::array<Frame, 34> stack;
  std::size_t top = 0;
  stack[top++] = Frame{1, 0, leaves_};
  while (top != 0) {
    const Frame f = stack[--top];
    if (f.lo >= last || f.lo + f.width <= first) continue;
    // A partly covered subtree's least host may lie outside the range; it
    // still bounds every host inside, so rejecting it rejects them all.
    const std::uint32_t win = winner_[f.v];
    if (win == kNone || !admits(load_[win], win)) continue;
    if (f.width == 1) {
      visit(win, load_[win]);
      continue;
    }
    const std::uint32_t half = f.width / 2;
    Frame near{2 * f.v, f.lo, half};
    Frame far{2 * f.v + 1, f.lo + half, half};
    if (winner_[far.v] == win) std::swap(near, far);
    stack[top++] = far;
    stack[top++] = near;
  }
}

}  // namespace nezha::policy
