// Sirius-style remote pool baseline (§2.3.3, §8).
//
// Sirius offloads a vNIC's processing to dedicated DPU cards and keeps
// per-connection state in the pool. Two consequences Nezha avoids:
//  1) fault tolerance needs in-line state replication — state-changing
//     packets ping-pong between a primary and a secondary card, halving the
//     pool's new-connection capacity;
//  2) load balancing hashes flows into a fixed number of buckets assigned
//     to cards; moving load reassigns buckets, and long-lived flows in a
//     moved bucket require state transfer between cards.
// This model implements the bucket machinery so the state-transfer volume
// and the replication tax can be measured against Nezha's zero-sync design.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/net/five_tuple.h"

namespace nezha::baseline {

class SiriusModel {
 public:
  /// `buckets` flows-hash buckets distributed over `cards` processing cards.
  SiriusModel(std::size_t cards, std::size_t buckets);

  std::size_t card_of(const net::FiveTuple& ft) const;
  std::size_t bucket_of(const net::FiveTuple& ft) const;

  /// Registers a live flow (its state lives on the owning card).
  void flow_started(const net::FiveTuple& ft, bool long_lived);
  void flow_finished(const net::FiveTuple& ft);
  std::size_t live_flows() const { return flows_.size(); }

  /// Rebalances: moves `n` buckets from the most-loaded card to the
  /// least-loaded one. New flows go to the new card immediately; existing
  /// short flows stay until completion; LONG-LIVED flows must have their
  /// state transferred. Returns the number of state transfers incurred.
  std::size_t rebalance(std::size_t n_buckets);

  /// Per-card live-flow counts (load-imbalance metric).
  std::vector<std::size_t> card_loads() const;

  /// Cumulative state transfers since construction.
  std::uint64_t state_transfers() const { return state_transfers_; }

  /// New-connection capacity of the pool under in-line (ping-pong)
  /// replication: half the raw capacity (§2.3.3).
  static double effective_cps(double per_card_cps, std::size_t cards) {
    return per_card_cps * static_cast<double>(cards) / 2.0;
  }

 private:
  struct FlowInfo {
    std::size_t bucket;
    bool long_lived;
    std::size_t card;  // pinned card (stays after rebalance unless moved)
  };

  std::size_t cards_;
  std::vector<std::size_t> bucket_to_card_;
  std::unordered_map<net::FiveTuple, FlowInfo> flows_;
  std::uint64_t state_transfers_ = 0;
};

}  // namespace nezha::baseline
