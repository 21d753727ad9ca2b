// Longest-prefix-match table over IPv4, generic in the stored value.
//
// Implementation: one exact-match hash map per prefix length, probed from
// /32 down — simple, allocation-friendly, and plenty fast for simulation.
// Lookups walk a precomputed probe list of {mask, length} pairs (descending
// by length, one entry per populated level), so the common case is a few
// contiguous probes with no per-probe bit-scan or mask arithmetic. The list
// stores lengths, not level pointers, so the table stays trivially
// copyable/movable (RuleTableSet is full-copied on FE installation).
//
// The 33 levels are allocated on the first insert: a table that never held
// a prefix is a few empty members, so copying it copies nothing. Most
// rule-table sets leave their QoS, NAT, statistics, mirror and policy-route
// tables empty.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/net/addr.h"
#include "src/tables/prefix.h"

namespace nezha::tables {

template <typename V>
class LpmTable {
 public:
  void insert(Prefix prefix, V value) {
    if (levels_.empty()) levels_.resize(33);
    auto& level = levels_[prefix.length];
    auto [it, inserted] = level.insert_or_assign(prefix.network(),
                                                 std::move(value));
    (void)it;
    if (inserted) ++size_;
    const std::uint64_t bit = std::uint64_t{1} << prefix.length;
    if ((populated_ & bit) == 0) {
      populated_ |= bit;
      rebuild_probes();
    }
  }

  bool erase(Prefix prefix) {
    if (levels_.empty()) return false;
    auto& level = levels_[prefix.length];
    const bool removed = level.erase(prefix.network()) > 0;
    if (removed) {
      --size_;
      if (level.empty()) {
        populated_ &= ~(std::uint64_t{1} << prefix.length);
        rebuild_probes();
      }
    }
    return removed;
  }

  void clear() {
    for (auto& level : levels_) level.clear();
    size_ = 0;
    populated_ = 0;
    probes_.clear();
  }

  std::size_t size() const { return size_; }

  /// Longest-prefix match; nullptr when no prefix covers ip.
  const V* lookup(net::Ipv4Addr ip) const {
    for (const Probe& p : probes_) {
      const auto& level = levels_[p.length];
      auto it = level.find(ip.value() & p.mask);
      if (it != level.end()) return &it->second;
    }
    return nullptr;
  }

  /// Exact lookup of a specific prefix entry.
  const V* find_exact(Prefix prefix) const {
    if (levels_.empty()) return nullptr;
    const auto& level = levels_[prefix.length];
    auto it = level.find(prefix.network());
    return it == level.end() ? nullptr : &it->second;
  }

  /// Per-entry footprint: prefix key + value payload, modeled at 32B.
  static constexpr std::size_t kEntryBytes = 32;
  std::size_t memory_bytes() const { return size_ * kEntryBytes; }

 private:
  struct Probe {
    std::uint32_t mask;
    std::uint8_t length;
  };

  /// Regenerates the probe list from the populated-length bitmask; runs only
  /// when a level transitions empty↔non-empty, never per lookup.
  void rebuild_probes() {
    probes_.clear();
    for (std::uint64_t remaining = populated_; remaining != 0;) {
      const int len = std::bit_width(remaining) - 1;  // longest first
      remaining &= ~(std::uint64_t{1} << len);
      const std::uint32_t mask = (len == 0) ? 0u : (~0u << (32 - len));
      probes_.push_back(Probe{mask, static_cast<std::uint8_t>(len)});
    }
  }

  /// One map per prefix length 0..32; empty until the first insert.
  std::vector<std::unordered_map<std::uint32_t, V>> levels_;
  /// Bit L set ⇔ levels_[L] is non-empty.
  std::uint64_t populated_ = 0;
  /// Populated levels, longest first; what lookup() actually walks.
  std::vector<Probe> probes_;
  std::size_t size_ = 0;
};

}  // namespace nezha::tables
