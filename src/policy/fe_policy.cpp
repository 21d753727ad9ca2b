#include "src/policy/fe_policy.h"

namespace nezha::policy {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStaticHash: return "static_hash";
    case PolicyKind::kLoadAwareWeighted: return "load_aware";
    case PolicyKind::kPushAsideDisplacement: return "push_aside";
  }
  return "unknown";
}

std::size_t StaticHashPolicy::pick(const net::FiveTuple& hash_ft,
                                   const tables::Location* /*fes*/,
                                   std::size_t n, std::uint64_t seed,
                                   const FeWeightBook& /*weights*/) const {
  return static_cast<std::size_t>(net::flow_hash(hash_ft, seed) % n);
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

std::size_t PushAsideDisplacementPolicy::pick(
    const net::FiveTuple& hash_ft, const tables::Location* /*fes*/,
    std::size_t n, std::uint64_t seed, const FeWeightBook& /*weights*/) const {
  // Displacement is a placement-time behavior; the hot path stays the
  // paper's static hash so the golden fingerprints hold under this policy
  // until a displacement actually changes the pool.
  return static_cast<std::size_t>(net::flow_hash(hash_ft, seed) % n);
}

const std::shared_ptr<const FeWeightBook>& empty_weight_book() {
  static const std::shared_ptr<const FeWeightBook> empty =
      std::make_shared<const FeWeightBook>();
  return empty;
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
