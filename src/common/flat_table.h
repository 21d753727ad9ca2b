// Open-addressing hash table of trivially copyable cells: linear probing
// over a power-of-two array, with backward-shift deletion (Knuth, TAOCP
// vol. 3, Algorithm 6.4R). An erase pulls later members of its cluster
// back over the hole instead of leaving a tombstone, so churn never
// lengthens probes or forces a rebuild, and the array grows only when the
// live count does.
//
// `Traits` describes a cell:
//   static bool empty(const Cell&);  // true for a value-initialised Cell
//   static std::uint64_t hash(const Cell&);  // where the cell's probe starts
//
// A cell carries its key, or enough of its hash to find its home, inline:
// regrowth and erase read hash() and nothing outside the table. Lookups
// take the key's hash and a predicate, so the caller decides what a match
// is, and a cell may hold a 32-bit tag and a slot into storage the table
// knows nothing about.
//
// One growth rule: nothing is allocated before the first insert; the array
// starts at 8 cells and doubles when an insert would pass 3/4 load, and
// clear() keeps it. There is no iteration: the cell order depends on the
// array size, so nothing can read it into an outcome.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace nezha::common {

template <typename Cell, typename Traits>
class FlatTable {
  static_assert(std::is_trivially_copyable_v<Cell>);

 public:
  std::size_t size() const { return size_; }

  /// The first cell a probe for `hash` visits, or null before the first
  /// insert (burst prefetch reads it).
  const Cell* home(std::uint64_t hash) const {
    return cells_.empty() ? nullptr : &cells_[hash & (cells_.size() - 1)];
  }

  /// The first cell on `hash`'s probe path for which `match(cell)` holds,
  /// or null when an empty cell ends the path first. The pointer is valid
  /// until the next insert or erase.
  template <typename Match>
  Cell* find(std::uint64_t hash, Match&& match) {
    return const_cast<Cell*>(std::as_const(*this).find(hash, match));
  }
  template <typename Match>
  const Cell* find(std::uint64_t hash, Match&& match) const {
    if (cells_.empty()) return nullptr;
    const std::size_t mask = cells_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Cell& cell = cells_[i];
      if (Traits::empty(cell)) return nullptr;
      if (match(cell)) return &cell;
    }
  }

  /// Stores `cell`, which must not be empty nor match a cell already held,
  /// in the first empty cell of its probe path, growing the array first if
  /// needed. Returns where it went, valid until the next insert or erase.
  Cell* insert(const Cell& cell) {
    if ((size_ + 1) * 4 > cells_.size() * 3) {
      std::vector<Cell> old(cells_.empty() ? 8 : cells_.size() * 2);
      old.swap(cells_);
      for (const Cell& held : old) {
        if (!Traits::empty(held)) store(held);
      }
    }
    ++size_;
    return store(cell);
  }

  /// Empties the table and keeps its array, so refilling it to the old
  /// size allocates nothing.
  void clear() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    size_ = 0;
  }

  /// Removes the held cell `hole` (from find() or insert()).
  void erase(const Cell* hole) {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hole - cells_.data());
    // Pull back every later cluster member whose home lies at or before
    // the hole (cyclically), so each stays reachable from its home.
    for (std::size_t j = (i + 1) & mask; !Traits::empty(cells_[j]);
         j = (j + 1) & mask) {
      const std::size_t home = Traits::hash(cells_[j]) & mask;
      if (((j - home) & mask) >= ((j - i) & mask)) {
        cells_[i] = cells_[j];
        i = j;
      }
    }
    cells_[i] = Cell{};
    --size_;
  }

 private:
  Cell* store(const Cell& cell) {
    const std::size_t mask = cells_.size() - 1;
    std::size_t i = Traits::hash(cell) & mask;
    while (!Traits::empty(cells_[i])) i = (i + 1) & mask;
    cells_[i] = cell;
    return &cells_[i];
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
};

}  // namespace nezha::common
