// Data-center topology model. Two fabrics are supported:
//
//  * kTiered — servers under ToR switches, ToRs under aggregation blocks,
//    blocks under a core. Only latency/locality matter to Nezha's FE
//    selection (§4.2.1/App B.1), so the fabric is modeled as per-tier
//    one-way latencies rather than explicit switch nodes.
//  * kClos — an explicit 2-tier spine/leaf Clos: configurable leaves,
//    hosts-per-leaf, spine count and oversubscription. Cross-leaf packets
//    pick a spine by deterministic ECMP hashing and (in sim::Network)
//    contend for finite leaf-uplink/spine-downlink bandwidth — the fabric
//    the fleet-scale testbed runs offload traffic across.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/sim/node.h"

namespace nezha::sim {

/// One-way host↔leaf and leaf↔spine hop latencies (propagation +
/// switching); a cross-leaf Clos path pays host→leaf→spine→leaf→host.
inline constexpr common::Duration kHostLeafLatency = common::microseconds(2);
inline constexpr common::Duration kLeafSpineLatency = common::microseconds(8);
/// One-way latency between two nodes on the same host, in either fabric.
inline constexpr common::Duration kSameHostLatency = common::microseconds(1);
/// One-way per-tier latencies of the tiered fabric.
inline constexpr common::Duration kSameTorLatency = common::microseconds(5);
inline constexpr common::Duration kSameAggLatency = common::microseconds(15);
inline constexpr common::Duration kCoreLatency = common::microseconds(30);

/// 2-tier Clos parameters. Leaf switching capacity is assumed non-blocking
/// within a rack; only the leaf↔spine tier carries the oversubscription.
struct ClosConfig {
  std::uint32_t num_leaves = 8;
  std::uint32_t hosts_per_leaf = 16;
  std::uint32_t num_spines = 4;
  /// Ratio of host-facing to spine-facing capacity per leaf (1.0 = fully
  /// non-blocking). Used by sim::Network to derive per-spine link bandwidth
  /// when NetworkConfig::fabric_link_bps is 0.
  double oversubscription = 2.0;
};

enum class FabricKind : std::uint8_t { kTiered = 0, kClos = 1 };

struct TopologyConfig {
  std::uint32_t servers_per_tor = 40;
  std::uint32_t tors_per_agg = 16;
  FabricKind kind = FabricKind::kTiered;
  ClosConfig clos;
};

/// n / d for 32-bit n and a d fixed at construction, as one multiply
/// (Lemire, Kaser & Kurz, SPE 2019): with m = floor((2^64 - 1) / d), n / d
/// is the high word of (m + 1) * n, taken as m * n + n since m + 1 = 2^64
/// for d = 1.
class Divisor {
 public:
  explicit Divisor(std::uint32_t d) : m_(~std::uint64_t{0} / d) {}
  std::uint32_t divide(std::uint32_t n) const {
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(m_) * n + n) >> 64);
  }

 private:
  std::uint64_t m_;
};

class Topology {
 public:
  explicit Topology(TopologyConfig config = {})
      : config_(config),
        rack_(config.kind == FabricKind::kClos ? config.clos.hosts_per_leaf
                                               : config.servers_per_tor),
        block_(config.tors_per_agg) {}

  const TopologyConfig& config() const { return config_; }
  bool is_clos() const { return config_.kind == FabricKind::kClos; }

  /// Rack of a server: ToR index (tiered) or leaf index (Clos). Under Clos
  /// the same-rack test drives the controller's FE locality preference just
  /// as same-ToR does in the tiered model. Every packet that may cross a
  /// leaf asks for racks, so the divisions are reciprocal multiplies.
  std::uint32_t tor_of(NodeId node) const { return rack_.divide(node); }
  std::uint32_t agg_of(NodeId node) const {
    // A 2-tier Clos has a single spine block above all leaves.
    return is_clos() ? 0 : block_.divide(tor_of(node));
  }
  std::uint32_t leaf_of(NodeId node) const { return tor_of(node); }

  bool same_tor(NodeId a, NodeId b) const { return tor_of(a) == tor_of(b); }
  bool same_agg(NodeId a, NodeId b) const { return agg_of(a) == agg_of(b); }
  bool same_leaf(NodeId a, NodeId b) const { return same_tor(a, b); }

  /// Number of fabric tiers a packet must cross (0 = same host). Clos paths
  /// top out at 2 (leaf, then spine).
  int hop_tier(NodeId a, NodeId b) const;

  /// One-way propagation + switching latency between two servers. For Clos
  /// this is the uncongested path latency; queueing delay on fabric links
  /// is added by sim::Network.
  common::Duration latency(NodeId a, NodeId b) const;

  /// Number of racks spanned by node ids [0, num_nodes).
  std::uint32_t rack_count(std::size_t num_nodes) const {
    if (num_nodes == 0) return 1;
    return tor_of(static_cast<NodeId>(num_nodes - 1)) + 1;
  }

  /// Lower bound on the remaining one-way latency of any packet after it
  /// leaves its source rack's domain — the conservative-lookahead bound a
  /// sharded engine's lockstep epoch must not exceed (DESIGN.md §13). For
  /// Clos it is the leaf→spine hop (a cross-leaf packet handed off at the
  /// uplink still has at least that long before it can reach another
  /// rack); for the tiered fabric, the cheapest cross-ToR path.
  common::Duration min_cross_rack_latency() const {
    return is_clos() ? kLeafSpineLatency : kSameAggLatency;
  }

  /// ECMP: the spine a cross-leaf flow with the given entropy traverses.
  /// Deterministic in (a, b, entropy) so a flow stays on one path and a
  /// fixed seed reproduces the exact spine load split.
  std::uint32_t ecmp_spine(NodeId a, NodeId b, std::uint64_t entropy) const;

 private:
  TopologyConfig config_;
  Divisor rack_;   // hosts per rack
  Divisor block_;  // racks per aggregation block
};

}  // namespace nezha::sim
