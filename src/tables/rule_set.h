// RuleTableSet: the per-vNIC bundle of slow-path rule tables (§2.1).
//
// A lookup runs the whole chain — ACL, VXLAN/LPM routing, QoS, statistics
// policy, NAT, plus optional advanced-feature tables — for *both* directions
// of the flow, producing bidirectional PreActions (the unit Nezha caches and
// offloads). The chain's CPU cost comes from CostModel; the set's memory
// footprint models production sizes via `synthetic_rule_bytes` (most vNICs
// need 5.5–10MB; middlebox vNICs reach O(100MB), §2.2.2).
//
// Flow-setup cache (DESIGN.md §11): lookup_cached() serves repeat chain
// executions from a derived per-vNIC cache. The cache key is the narrowest
// sound projection of the TX 5-tuple — IPs and protocol always, each port
// only when the chain actually consulted it for this flow (AclLookupProbe;
// NAT allocation hashes the full tuple, so a NAT hit pins both ports).
// Flows whose evaluation never reads a port therefore share one entry per
// (src, dst, proto), which collapses the per-connection setup cost of
// workloads that differ only in ports. Entries are validated against a
// mutation epoch summed over every table's monotone mutation counter plus
// the committed rule version, so ANY table change — committed or not —
// invalidates the whole cache. Cached PreActions are bit-identical to what
// lookup() would produce (same rule_version included); the cache is a pure
// wall-clock optimization and charges no simulated cycles or memory. It
// starts at 4 entries on the first miss and doubles at half load, and the
// five LPM policy tables allocate nothing until their first insert, so a
// set holding only an ACL copies cheaply (FE install, offload closures).
#pragma once

#include <cstdint>
#include <vector>

#include "src/flow/pre_actions.h"
#include "src/net/five_tuple.h"
#include "src/tables/acl.h"
#include "src/tables/cost_model.h"
#include "src/tables/policy_tables.h"

namespace nezha::tables {

struct RuleSetProfile {
  /// Transit Router bypasses the ACL (§6.3.1), hence its lower CPS gain.
  bool acl_enabled = true;
  /// Total tables in the chain: 5 basic, up to 12 with advanced features.
  int num_tables = 5;
  /// Extra bytes modeling the production bulk of this vNIC's rule tables
  /// (routes to every peer in the VPC, per-tenant policies, ...).
  std::size_t synthetic_rule_bytes = 6 * 1024 * 1024;
};

class RuleTableSet {
 public:
  explicit RuleTableSet(RuleSetProfile profile = {}) : profile_(profile) {}

  // Mutable table access. Callers that change tenant intent must call
  // commit_update() afterwards so cached flows get invalidated (§3.2.2).
  AclTable& acl() { return acl_; }
  QosTable& qos() { return qos_; }
  NatTable& nat() { return nat_; }
  StatsPolicyTable& stats_policy() { return stats_policy_; }
  PolicyRouteTable& policy_routes() { return policy_routes_; }
  MirrorTable& mirrors() { return mirrors_; }

  const AclTable& acl() const { return acl_; }
  const StatsPolicyTable& stats_policy() const { return stats_policy_; }

  /// Bumps the rule version; cached flows created against older versions
  /// are stale and must be regenerated by a fresh lookup.
  void commit_update() { ++version_; }
  std::uint32_t version() const { return version_; }

  /// Runs the full chain for both directions of `ft` (as seen from the
  /// vNIC: `ft` oriented TX). next_hop fields are left unresolved — the
  /// owning vSwitch resolves them through its learned vNIC-server map.
  flow::PreActions lookup(const net::FiveTuple& tx_ft) const;

  /// lookup() served through the flow-setup cache: identical result, one
  /// masked-key probe on the hot path instead of the full chain.
  flow::PreActions lookup_cached(const net::FiveTuple& tx_ft) const;

  /// Combined mutation epoch: changes whenever any table in the set is
  /// mutated (with or without commit_update()).
  std::uint64_t setup_epoch() const {
    return acl_.mutations() + qos_.mutations() + nat_.mutations() +
           stats_policy_.version() + policy_routes_.mutations() +
           mirrors_.mutations() + version_;
  }

  // Setup-cache observability (bench + invalidation tests).
  std::uint64_t setup_cache_hits() const { return cache_hits_; }
  std::uint64_t setup_cache_misses() const { return cache_misses_; }

  /// CPU cycles one slow-path chain execution costs under `model`.
  double lookup_cycles(const CostModel& model) const {
    return model.slow_path_chain_cycles(acl_.rule_count(), profile_.num_tables,
                                        profile_.acl_enabled);
  }

  /// Total slow-path memory this vNIC pins on its vSwitch.
  std::size_t memory_bytes() const {
    return acl_.memory_bytes() + qos_.memory_bytes() + nat_.memory_bytes() +
           stats_policy_.memory_bytes() + policy_routes_.memory_bytes() +
           mirrors_.memory_bytes() + profile_.synthetic_rule_bytes;
  }

 private:
  /// Cache-key port mask bits: which ports this flow's evaluation consulted.
  static constexpr std::uint8_t kMaskSrcPort = 1;
  static constexpr std::uint8_t kMaskDstPort = 2;

  struct CacheEntry {
    net::FiveTuple key;  // masked tuple (unconsulted ports zeroed)
    flow::PreActions pre;
    std::uint64_t hash = 0;
    std::uint8_t mask = 0;
    bool used = false;
  };

  /// Runs the chain while tracking the consulted-field mask for `tx_ft`.
  flow::PreActions chain_with_mask(const net::FiveTuple& tx_ft,
                                   std::uint8_t& mask) const;

  static net::FiveTuple masked_tuple(const net::FiveTuple& ft,
                                     std::uint8_t mask) {
    net::FiveTuple k = ft;
    if ((mask & kMaskSrcPort) == 0) k.src_port = 0;
    if ((mask & kMaskDstPort) == 0) k.dst_port = 0;
    return k;
  }

  const CacheEntry* cache_find(const net::FiveTuple& masked,
                               std::uint8_t mask, std::uint64_t h) const;
  void cache_insert(const net::FiveTuple& masked, std::uint8_t mask,
                    std::uint64_t h, const flow::PreActions& pre) const;

  RuleSetProfile profile_;
  AclTable acl_;
  QosTable qos_;
  NatTable nat_;
  StatsPolicyTable stats_policy_;
  PolicyRouteTable policy_routes_;
  MirrorTable mirrors_;
  std::uint32_t version_ = 1;

  // Flow-setup cache (derived data: mutable so lookup_cached stays const
  // like lookup; no simulated memory is charged for it).
  mutable std::vector<CacheEntry> cache_;  // open-addressed, power of two
  mutable std::size_t cache_used_ = 0;
  mutable std::uint64_t cache_epoch_ = ~0ull;
  mutable std::uint8_t cache_masks_ = 0;  // bitset over mask values 0..3
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
};

}  // namespace nezha::tables
