// Analytic capacity models for the three network capabilities the paper
// tracks (CPS, #concurrent flows, #vNICs) under: a traditional local
// vSwitch, Nezha with N FEs, and a Sirius-style dedicated pool.
//
// These closed forms use the same constants as the simulation (cycle costs,
// entry sizes, pool budgets) and drive the capacity panels of Fig 9 and the
// Table 3 reproduction; the CPS claims are cross-checked against the packet
// level simulation in the benches.
#pragma once

#include <cstddef>

namespace nezha::baseline {

/// vSwitch cycles/second available to virtual networking.
inline constexpr double kVswitchCyclesPerSec = 5e9;
/// FE-side cycles per connection (the rule chain now runs there).
inline constexpr double kConnCyclesFe = 36000.0;
/// §6.2.1: per-vNIC BE data.
inline constexpr std::size_t kBeMetadataBytes = 2048;

struct DeploymentParams {
  // --- CPU ---
  /// VM guest-kernel CPS ceiling (the post-Nezha bottleneck, Fig 10).
  double vm_kernel_cps_limit = 400000.0;

  // --- memory ---
  std::size_t session_pool_bytes = 1ull << 30;        // local fast path
  std::size_t fe_cache_pool_bytes = 512ull << 20;     // idle memory per FE
  std::size_t local_rule_free_bytes = 256ull << 20;   // free on the hot vSwitch
  std::size_t vnic_rule_bytes = 6ull << 20;           // per-vNIC table bulk
  /// Rule memory freed by offloading (repurposed for states, §6.3.1). The
  /// default lands the Fig 9 #flows knee at 4 FEs with a ≈3.8x plateau.
  std::size_t freed_rule_bytes = 1400ull << 20;
};

struct CapacityModel {
  // ---------------- CPS ----------------
  static double local_cps(const DeploymentParams& p);
  /// min(BE CPU, N × FE CPU, VM kernel): the plateau above 4 FEs in Fig 9
  /// is the VM kernel term.
  static double nezha_cps(const DeploymentParams& p, std::size_t num_fes);
  /// Sirius in-line replication ping-pongs state-changing packets between
  /// primary and secondary cards: new-connection capacity is HALF the raw
  /// pool capacity (§2.3.3).
  static double sirius_cps(double per_card_cps, std::size_t cards);

  // ------------- #concurrent flows -------------
  static std::size_t local_max_flows(const DeploymentParams& p);
  /// min(BE state capacity incl. repurposed rule memory, N × FE cache
  /// capacity): FE-bound below ~4 FEs, BE-bound above (Fig 9).
  static std::size_t nezha_max_flows(const DeploymentParams& p,
                                     std::size_t num_fes);

  // ---------------- #vNICs ----------------
  static std::size_t local_max_vnics(const DeploymentParams& p);
  /// min(N × FE rule capacity, BE metadata capacity): proportional to #FEs
  /// until the 2KB-per-vNIC BE data exhausts the freed local memory
  /// (theoretical 1000x = 2MB/2KB, §6.2.1).
  static std::size_t nezha_max_vnics(const DeploymentParams& p,
                                     std::size_t num_fes);
};

}  // namespace nezha::baseline
