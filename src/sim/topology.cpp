#include "src/sim/topology.h"

namespace nezha::sim {

namespace {

// splitmix64 finalizer: cheap, well-mixed, and stable across platforms so
// ECMP path selection is reproducible from the seed alone.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int Topology::hop_tier(NodeId a, NodeId b) const {
  if (a == b) return 0;
  if (same_tor(a, b)) return 1;
  if (is_clos()) return 2;  // cross-leaf: up through a spine and back down
  if (same_agg(a, b)) return 2;
  return 3;
}

common::Duration Topology::latency(NodeId a, NodeId b) const {
  if (is_clos()) {
    switch (hop_tier(a, b)) {
      case 0:
        return kSameHostLatency;
      case 1:
        // host → leaf → host.
        return 2 * kHostLeafLatency;
      default:
        // host → leaf → spine → leaf → host.
        return 2 * kHostLeafLatency + 2 * kLeafSpineLatency;
    }
  }
  switch (hop_tier(a, b)) {
    case 0: return kSameHostLatency;
    case 1: return kSameTorLatency;
    case 2: return kSameAggLatency;
    default: return kCoreLatency;
  }
}

std::uint32_t Topology::ecmp_spine(NodeId a, NodeId b, std::uint64_t entropy) const {
  const std::uint32_t spines =
      config_.clos.num_spines == 0 ? 1 : config_.clos.num_spines;
  // Hash direction-insensitively over the leaf pair so both directions of a
  // flow ride the same spine (as canonical-5-tuple ECMP does in practice).
  std::uint32_t la = leaf_of(a);
  std::uint32_t lb = leaf_of(b);
  if (la > lb) std::swap(la, lb);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(la) << 32) | static_cast<std::uint64_t>(lb);
  return static_cast<std::uint32_t>(mix64(key ^ mix64(entropy)) % spines);
}

}  // namespace nezha::sim
