// FE-selection policy lab (DESIGN.md §14): pluggable strategies for the two
// places Nezha picks a frontend —
//
//  * the per-flow hot path: which FE of an offloaded vNIC's published pool
//    serves a given 5-tuple (sender-side resolve_dst and BE-side be_tx), and
//  * the control-plane placement path: the load key by which the controller
//    orders FE hosts for offload / scale-out / failover replacement.
//
// Contract: a policy is a stateless pure function. pick() must be
// deterministic in (tuple, FE list, seed, weight book), allocation-free, and
// must return an index < n for every n >= 1 — every published FE is
// installed (Controller::publish_placement filters the rest), so any choice
// is safe, but senders and BEs only agree (session-consistent FE mapping)
// when they run the same policy with the same seed and weight book. FEs are
// stateless (state lives at the BE), so a disagreement during seed/weight
// propagation costs one extra rule lookup at the new FE, never a broken
// connection — the consistency argument in DESIGN.md §14 rests on that.
//
// This header deliberately depends only on net/ and tables/ so the policy
// layer sits below vswitch/ and core/ (both include it; no cycle).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/five_tuple.h"
#include "src/tables/vnic_server_map.h"

namespace nezha::policy {

enum class PolicyKind : std::uint8_t {
  /// The paper's behavior (§3.2.3): flow_hash(tuple, seed) % pool size.
  /// Bit-identical to the pre-policy code path; the default everywhere.
  kStaticHash = 0,
  /// Charon-style load-aware selection: weighted rendezvous hashing keyed
  /// on each FE's underlay IP, weights pushed fleet-wide by the controller
  /// from its per-FE cpu/queue samples (the same signals the telemetry
  /// registry's vs<i>.cpu_util / vs<i>.port_q gauges export).
  kLoadAwareWeighted = 1,
  /// PAM-style push-aside: hot path identical to kStaticHash, but when the
  /// controller cannot fill an FE pool from idle hosts it evicts the
  /// least-loaded busy neighbor's FE (from a pool that can spare one) and
  /// installs the requester there.
  kPushAsideDisplacement = 2,
};

const char* to_string(PolicyKind kind);

/// Fleet-wide FE weight table for kLoadAwareWeighted, keyed by FE underlay
/// IP (never by pool slot: keying on the IP means list reorders move no
/// flows and removing an FE only remaps the flows it served). Quantized to
/// [1, kMaxWeight] — never 0, so an FE still serving stale senders keeps
/// draining its flows. The controller recomputes the book and publishes it
/// as one immutable copy that every vSwitch points at; `version` lets tests
/// assert propagation.
struct FeWeightBook {
  static constexpr std::uint16_t kDefaultWeight = 32;  // load-neutral
  static constexpr std::uint16_t kMaxWeight = 64;

  std::unordered_map<std::uint32_t, std::uint16_t> weight_by_ip;
  std::uint64_t version = 0;

  std::uint16_t weight_of(net::Ipv4Addr ip) const {
    if (weight_by_ip.empty()) return kDefaultWeight;
    auto it = weight_by_ip.find(ip.value());
    return it == weight_by_ip.end() ? kDefaultWeight : it->second;
  }
  void set(net::Ipv4Addr ip, std::uint16_t weight) {
    weight_by_ip[ip.value()] = weight;
  }
};

/// The book every vSwitch holds before the controller publishes one: empty,
/// so every FE weighs kDefaultWeight. One instance per process.
const std::shared_ptr<const FeWeightBook>& empty_weight_book();

/// Port backlog the load-aware signals count as fully congested (~1000 MTU
/// packets): the placement key and the FE weight book saturate there.
inline constexpr double kQueueNormBytes = 1.5e6;

/// The load part of a host's PlacementKey, lower first: the sampled CPU
/// (App B.1's least-loaded), or, with `backlog`, CPU plus the port backlog
/// over kQueueNormBytes, each saturating at 1, so a host with an idle CPU
/// and a saturated port ranks behind a genuinely idle one.
struct LoadKey {
  bool backlog = false;

  double operator()(double cpu_util, double queue_bytes) const {
    if (!backlog) return cpu_util;
    return std::min(1.0, cpu_util) +
           std::min(1.0, queue_bytes / kQueueNormBytes);
  }
};

/// A host's place in the order every policy ranks FE hosts by (App B.1):
/// hop tier from the vNIC's home (same ToR first), then the policy's load
/// key (least-loaded first), then node id. The order is total, so the best
/// `count` hosts, and their order, do not depend on the order a placement
/// visits the fleet in. (Laid out in 16 B: a placement builds one per host
/// it visits.)
struct PlacementKey {
  int tier = 0;
  std::uint32_t node = 0;
  double load = 0.0;

  bool operator<(const PlacementKey& o) const {
    if (tier != o.tier) return tier < o.tier;
    if (load != o.load) return load < o.load;
    return node < o.node;
  }
};

/// The best `count` keys offered so far, best first. A placement offers the
/// key of each idle host its load-index search visits, so it holds
/// O(count) state and sorts only the keys that enter the list.
class Shortlist {
 public:
  explicit Shortlist(std::size_t count)
      : count_(count),
        bar_{count == 0 ? std::numeric_limits<int>::min()
                        : std::numeric_limits<int>::max()} {
    best_.reserve(count);
  }

  /// True when `key` would enter the list now; a placement asks this before
  /// a host's costlier eligibility tests, and of a subtree's least host
  /// before searching the subtree.
  bool admits(const PlacementKey& key) const { return key < bar_; }
  /// Inserts an admitted key in order, dropping the worst once `count` are
  /// held.
  void take(const PlacementKey& key) {
    if (best_.size() == count_) best_.pop_back();
    best_.insert(std::upper_bound(best_.begin(), best_.end(), key), key);
    if (best_.size() == count_) bar_ = best_.back();
  }
  const std::vector<PlacementKey>& best() const { return best_; }

 private:
  std::size_t count_;
  // What a key must beat: any key while the list has room (every tier is
  // below INT_MAX), none when count is 0, the worst held once full.
  PlacementKey bar_;
  std::vector<PlacementKey> best_;
};

class FeSelectionPolicy {
 public:
  virtual ~FeSelectionPolicy() = default;

  virtual PolicyKind kind() const = 0;

  /// Hot path: index of the FE serving `hash_ft` out of `fes[0..n)`.
  /// Callers canonicalize the tuple first when session_consistent_fe_hash
  /// is on (unchanged from the pre-policy code). Must be alloc-free,
  /// deterministic, and in-range for every n >= 1.
  virtual std::size_t pick(const net::FiveTuple& hash_ft,
                           const tables::Location* fes, std::size_t n,
                           std::uint64_t seed,
                           const FeWeightBook& weights) const = 0;

  /// Control path: how placement weighs a host's load. The default is the
  /// sampled CPU; the controller reads each host's port only for a key
  /// that counts backlog.
  virtual LoadKey load_key() const { return {}; }

  /// True when the controller may displace a neighbor's FE to satisfy this
  /// policy's placement when no idle host remains.
  virtual bool displaces() const { return false; }
};

class StaticHashPolicy final : public FeSelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kStaticHash; }
  std::size_t pick(const net::FiveTuple& hash_ft, const tables::Location* fes,
                   std::size_t n, std::uint64_t seed,
                   const FeWeightBook& weights) const override;
};

class LoadAwareWeightedPolicy final : public FeSelectionPolicy {
 public:
  PolicyKind kind() const override { return PolicyKind::kLoadAwareWeighted; }
  std::size_t pick(const net::FiveTuple& hash_ft, const tables::Location* fes,
                   std::size_t n, std::uint64_t seed,
                   const FeWeightBook& weights) const override;
  LoadKey load_key() const override { return LoadKey{true}; }
};

class PushAsideDisplacementPolicy final : public FeSelectionPolicy {
 public:
  PolicyKind kind() const override {
    return PolicyKind::kPushAsideDisplacement;
  }
  std::size_t pick(const net::FiveTuple& hash_ft, const tables::Location* fes,
                   std::size_t n, std::uint64_t seed,
                   const FeWeightBook& weights) const override;
  bool displaces() const override { return true; }
};

/// Process-wide stateless singletons (policies hold no state, so sharing
/// one instance across beds/switches is safe by construction).
const FeSelectionPolicy& policy_for(PolicyKind kind);

/// Convenience for callers holding a Location vector.
inline const tables::Location& pick_location(const FeSelectionPolicy& policy,
                                             const net::FiveTuple& hash_ft,
                                             const std::vector<tables::Location>& fes,
                                             std::uint64_t seed,
                                             const FeWeightBook& weights) {
  return fes[policy.pick(hash_ft, fes.data(), fes.size(), seed, weights)];
}

}  // namespace nezha::policy
