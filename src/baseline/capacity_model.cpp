#include "src/baseline/capacity_model.h"

#include <algorithm>

namespace nezha::baseline {

namespace {

/// Slow-path cycles to establish one connection locally (rule chain for
/// both directions + session setup + connection management).
constexpr double kConnCyclesLocal = 40000.0;
/// BE-side cycles per connection under Nezha (state init + carrier codec
/// + encap for the handful of handshake packets).
constexpr double kConnCyclesBe = 6000.0;
constexpr std::size_t kFeRulePoolBytes = 2ull << 30;  // idle slow path per FE
constexpr std::size_t kFullEntryBytes = 128;  // key + pre-actions + state
constexpr std::size_t kStateEntryBytes = 80;  // key + state (BE shape)
constexpr std::size_t kCacheEntryBytes = 64;  // key + pre-actions (FE shape)

}  // namespace

double CapacityModel::local_cps(const DeploymentParams& p) {
  return std::min(kVswitchCyclesPerSec / kConnCyclesLocal,
                  p.vm_kernel_cps_limit);
}

double CapacityModel::nezha_cps(const DeploymentParams& p,
                                std::size_t num_fes) {
  if (num_fes == 0) return local_cps(p);
  const double be_bound = kVswitchCyclesPerSec / kConnCyclesBe;
  const double fe_bound = static_cast<double>(num_fes) *
                          kVswitchCyclesPerSec / kConnCyclesFe;
  return std::min({be_bound, fe_bound, p.vm_kernel_cps_limit});
}

double CapacityModel::sirius_cps(double per_card_cps, std::size_t cards) {
  // In-line replication: packets that change state ping-pong between the
  // primary and secondary card, so each connection consumes capacity twice.
  return per_card_cps * static_cast<double>(cards) / 2.0;
}

std::size_t CapacityModel::local_max_flows(const DeploymentParams& p) {
  return p.session_pool_bytes / kFullEntryBytes;
}

std::size_t CapacityModel::nezha_max_flows(const DeploymentParams& p,
                                           std::size_t num_fes) {
  if (num_fes == 0) return local_max_flows(p);
  // BE: states only, plus all the rule memory freed by evicting rule
  // tables, repurposed for states.
  const std::size_t be_state_bytes = p.session_pool_bytes + p.freed_rule_bytes;
  const std::size_t be_bound = be_state_bytes / kStateEntryBytes;
  // FE: every live flow needs a cached-flow entry at its FE.
  const std::size_t fe_bound =
      num_fes * (p.fe_cache_pool_bytes / kCacheEntryBytes);
  return std::min(be_bound, fe_bound);
}

std::size_t CapacityModel::local_max_vnics(const DeploymentParams& p) {
  return std::max<std::size_t>(1, p.local_rule_free_bytes / p.vnic_rule_bytes);
}

std::size_t CapacityModel::nezha_max_vnics(const DeploymentParams& p,
                                           std::size_t num_fes) {
  if (num_fes == 0) return local_max_vnics(p);
  const std::size_t fe_bound =
      num_fes * (kFeRulePoolBytes / p.vnic_rule_bytes);
  const std::size_t be_bound =
      (p.local_rule_free_bytes + p.freed_rule_bytes) / kBeMetadataBytes;
  return std::min(fe_bound, be_bound);
}

}  // namespace nezha::baseline
