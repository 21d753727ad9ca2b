#include "src/policy/fe_policy.h"

#include <algorithm>

namespace nezha::policy {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStaticHash: return "static_hash";
    case PolicyKind::kLoadAwareWeighted: return "load_aware";
    case PolicyKind::kPushAsideDisplacement: return "push_aside";
  }
  return "unknown";
}

void FeSelectionPolicy::rank(std::vector<PlacementCandidate>& candidates,
                             std::size_t count) const {
  // App B.1: prefer close (same ToR first) then least-loaded, so the
  // selected set has similar performance-affecting attributes. Node id is
  // the deterministic tie-break. This comparator is byte-for-byte the
  // pre-policy Controller::select_frontends order. Only the best `count`
  // are ordered: O(n log count), not a full sort of the fleet.
  const auto mid = candidates.begin() + std::min(count, candidates.size());
  std::partial_sort(
      candidates.begin(), mid, candidates.end(),
      [](const PlacementCandidate& a, const PlacementCandidate& b) {
        if (a.tier != b.tier) return a.tier < b.tier;
        if (a.cpu_util != b.cpu_util) return a.cpu_util < b.cpu_util;
        return a.node < b.node;
      });
}

std::size_t StaticHashPolicy::pick(const net::FiveTuple& hash_ft,
                                   const tables::Location* /*fes*/,
                                   std::size_t n, std::uint64_t seed,
                                   const FeWeightBook& /*weights*/) const {
  return static_cast<std::size_t>(net::flow_hash(hash_ft, seed) % n);
}

double LoadAwareWeightedPolicy::load_score(const PlacementCandidate& c) {
  const double queue = c.queue_bytes / kQueueNormBytes;
  return std::min(1.0, c.cpu_util) + std::min(1.0, queue);
}

std::size_t LoadAwareWeightedPolicy::pick(const net::FiveTuple& hash_ft,
                                          const tables::Location* fes,
                                          std::size_t n, std::uint64_t seed,
                                          const FeWeightBook& weights) const {
  if (n <= 1) return 0;
  // Weighted rendezvous (highest-random-weight) hashing keyed on the FE's
  // underlay IP: per flow, score every FE with an independent hash scaled
  // by its published weight and take the argmax. Keying on the IP (not the
  // pool slot) means reordering the published list moves no flows, and
  // removing an FE remaps only the flows it served. (h >> 32) * weight
  // stays below 2^38 — no overflow, and the low hash bits never matter,
  // so ties are broken deterministically by pool index.
  const std::uint64_t fh = net::flow_hash(hash_ft, seed);
  std::size_t best = 0;
  std::uint64_t best_score = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ip_salt = net::flow_hash_mix64(
        static_cast<std::uint64_t>(fes[i].ip.value()) * 0x9e3779b97f4a7c15ULL +
        1);
    const std::uint64_t h = net::flow_hash_mix64(fh ^ ip_salt);
    const std::uint64_t score = (h >> 32) * weights.weight_of(fes[i].ip);
    if (i == 0 || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

void LoadAwareWeightedPolicy::rank(std::vector<PlacementCandidate>& candidates,
                                   std::size_t count) const {
  // Same structure as the default (locality first, deterministic tie-break)
  // but the load key folds queue backlog into CPU so a host with an idle
  // CPU and a saturated port ranks behind a genuinely idle one.
  const auto mid = candidates.begin() + std::min(count, candidates.size());
  std::partial_sort(
      candidates.begin(), mid, candidates.end(),
      [](const PlacementCandidate& a, const PlacementCandidate& b) {
        if (a.tier != b.tier) return a.tier < b.tier;
        const double la = load_score(a);
        const double lb = load_score(b);
        if (la != lb) return la < lb;
        return a.node < b.node;
      });
}

std::size_t PushAsideDisplacementPolicy::pick(
    const net::FiveTuple& hash_ft, const tables::Location* /*fes*/,
    std::size_t n, std::uint64_t seed, const FeWeightBook& /*weights*/) const {
  // Displacement is a placement-time behavior; the hot path stays the
  // paper's static hash so the golden fingerprints hold under this policy
  // until a displacement actually changes the pool.
  return static_cast<std::size_t>(net::flow_hash(hash_ft, seed) % n);
}

const FeSelectionPolicy& policy_for(PolicyKind kind) {
  static const StaticHashPolicy static_hash;
  static const LoadAwareWeightedPolicy load_aware;
  static const PushAsideDisplacementPolicy push_aside;
  switch (kind) {
    case PolicyKind::kLoadAwareWeighted: return load_aware;
    case PolicyKind::kPushAsideDisplacement: return push_aside;
    case PolicyKind::kStaticHash: break;
  }
  return static_hash;
}

}  // namespace nezha::policy
