#include "src/policy/load_index.h"

namespace nezha::policy {

void LoadIndex::push_back(double load) {
  const auto node = static_cast<std::uint32_t>(load_.size());
  load_.push_back(load);
  if (node < leaves_) {
    set(node, load);
    return;
  }
  // Out of leaves: double them and rebuild every winner bottom-up.
  leaves_ = leaves_ == 0 ? 1 : 2 * leaves_;
  winner_.assign(2 * static_cast<std::size_t>(leaves_), kNone);
  for (std::uint32_t i = 0; i < load_.size(); ++i) winner_[leaves_ + i] = i;
  for (std::uint32_t v = leaves_ - 1; v >= 1; --v) {
    winner_[v] = better(winner_[2 * v], winner_[2 * v + 1]);
  }
}

void LoadIndex::set(std::uint32_t node, double load) {
  load_[node] = load;
  winner_[leaves_ + node] = node;
  for (std::uint32_t v = (leaves_ + node) / 2; v >= 1; v /= 2) {
    const std::uint32_t was = winner_[v];
    winner_[v] = better(winner_[2 * v], winner_[2 * v + 1]);
    // A winner other than `node` that stands keeps its key, so nothing
    // above it changes.
    if (winner_[v] == was && was != node) return;
  }
}

}  // namespace nezha::policy
