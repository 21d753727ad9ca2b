// FE-selection policy lab (DESIGN.md §14): pluggable strategies for the two
// places Nezha picks a frontend —
//
//  * the per-flow hot path: which FE of an offloaded vNIC's published pool
//    serves a given 5-tuple (sender-side resolve_dst and BE-side be_tx), and
//  * the control-plane placement path: which vSwitches the controller ranks
//    as FE hosts for offload / scale-out / failover replacement.
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

#include <cstddef>
#include <cstdint>
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
/// draining its flows. The controller recomputes and pushes the book to the
/// whole fleet; `version` lets tests assert propagation.
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

/// One FE-host candidate as the controller sees it when ranking placement:
/// a POD snapshot so the policy layer never touches vswitch/ types.
struct PlacementCandidate {
  std::uint32_t node = 0;     // sim::NodeId of the candidate vSwitch
  int tier = 0;               // topology hop tier from the vNIC's home
  double cpu_util = 0.0;      // controller's last sampled CPU utilization
  double queue_bytes = 0.0;   // egress port backlog (owning shard's view)
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

  /// Control path: moves the best `count` placement candidates to the
  /// front, best-first; the rest of the vector is left in no particular
  /// order. Every comparator ends on the node id, so the order is total and
  /// the prefix equals that of a full sort. The default is the paper's App
  /// B.1 preference — same ToR, then least-loaded, then lowest node id —
  /// exactly the pre-policy Controller::select_frontends comparator.
  virtual void rank(std::vector<PlacementCandidate>& candidates,
                    std::size_t count) const;

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
  void rank(std::vector<PlacementCandidate>& candidates,
            std::size_t count) const override;

  /// Combined load signal used for ranking: CPU utilization plus the port
  /// backlog normalized against kQueueNormBytes, saturating at 1 each.
  static double load_score(const PlacementCandidate& c);
  /// Backlog considered "fully congested" (~1000 MTU packets).
  static constexpr double kQueueNormBytes = 1.5e6;
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
