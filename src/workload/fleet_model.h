// Fleet telemetry model: regenerates the production distributions behind
// Figs 2–4 and Table 1 from their published percentile anchors.
//
// The paper reports quantiles of CPU/memory utilization over O(10K)
// vSwitches and of per-VM service usage; we sample from the piecewise
// log-linear quantile function through those anchors. This reproduces the
// published shape by construction while remaining an honest generative
// model (samples between anchors are interpolated, the tail beyond P9999 is
// clamped to the reported maximum).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"

namespace nezha::workload {

/// A distribution defined by (quantile, value) anchor points.
class QuantileDistribution {
 public:
  struct Anchor {
    double quantile;  // in [0, 1]
    double value;
  };

  explicit QuantileDistribution(std::vector<Anchor> anchors);

  /// Inverse-CDF sample (log-linear interpolation between anchors).
  double sample(common::Rng& rng) const;
  double value_at(double quantile) const;

 private:
  std::vector<Anchor> anchors_;
};

struct FleetModelConfig {
  std::size_t num_vswitches = 10000;
  std::uint64_t seed = 20240901;
};

/// Which capability a hotspot exhausts (Fig 3 / Appendix A.1).
enum class HotspotCause { kCps, kConcurrentFlows, kVnics };
std::string to_string(HotspotCause cause);

class FleetModel {
 public:
  explicit FleetModel(FleetModelConfig config = {});

  /// §2.2.1 Fig 4a: per-vSwitch CPU utilization in [0,1].
  /// Anchors: avg≈5%, P90 15%, P99 41%, P999 68%, P9999 90%, max 98%.
  std::vector<double> sample_cpu_utilization();

  /// §2.2.1 Fig 4b: memory utilization.
  /// Anchors: avg≈1.5%, P90 15%, P99 34%, P999 93%, P9999 96%.
  std::vector<double> sample_memory_utilization();

  /// Table 1: per-VM service usage normalized to the P9999 user (=1.0),
  /// same quantile law for CPS / #flows / #vNICs with per-kind anchors.
  std::vector<double> sample_usage(HotspotCause kind, std::size_t n);

  /// Fig 3: the capability that caused each overload event
  /// (CPS 61%, #concurrent flows 30%, #vNICs 9%).
  std::vector<HotspotCause> sample_hotspot_causes(std::size_t n);

  /// Fig 2: paired (VM CPU, vSwitch CPU) for high-CPS VMs: vSwitch >95%
  /// in all cases while 90% of the VMs sit below 60%.
  struct HighCpsPair {
    double vm_cpu;
    double vswitch_cpu;
  };
  std::vector<HighCpsPair> sample_high_cps_pairs(std::size_t n);

 private:
  FleetModelConfig config_;
  common::Rng rng_;
};

// ---------------------------------------------------------------------------

struct FleetScenarioConfig {
  /// Server (heavy, offloadable) vNICs; each gets a client vNIC placed in a
  /// different rack, so client→server traffic crosses the spine tier.
  std::size_t num_pairs = 8;
  /// Baseline offered load per pair; scaled per pair by the Table-1 CPS
  /// usage distribution so the fleet has realistic heavy hitters.
  double base_attempts_per_sec = 5000.0;
  std::uint32_t vpc_id = 77;
  std::uint64_t seed = 1;
};

/// Fleet-scale scenario driver: populates a (typically ≥128-vSwitch, Clos)
/// testbed with cross-rack client/server vNIC pairs shaped by the fleet
/// telemetry model, offloads every server vNIC, and runs CPS workloads whose
/// BE↔FE and client→FE traffic traverses the underlay fabric. All decisions
/// derive from (config, seed), so a run's fingerprint() is reproducible
/// bit-for-bit.
class FleetScenario {
 public:
  FleetScenario(core::Testbed& bed, FleetScenarioConfig config = {});

  /// Creates the vNIC pairs: server i on the first host of leaf i (mod
  /// #leaves), its client on a host half the fabric away. Pair i's vNIC
  /// ids are 1000 + i (server) and 2000 + i (client) below 1000 pairs;
  /// larger fleets continue in alternating blocks of 1000, so every vNIC
  /// id is distinct.
  void deploy();

  /// Offloads the server vNICs to 4 FEs each, skipping the last
  /// `holdback` servers (left local so a mid-window churn push has work to
  /// do); returns how many offload workflows were accepted.
  std::size_t offload_all(std::size_t holdback = 0);

  /// Full-churn script for threaded end-to-end runs, fired through
  /// Testbed::schedule_control (fenced sections on a threaded bed, plain
  /// loop events otherwise). Relative to now:
  ///  * offload_at — offload every still-local server vNIC (the holdback);
  ///  * crash_at   — crash the lowest-numbered FE of the first server's
  ///    pool on every shard's network, with the health monitor watching
  ///    all FE hosts, so failover flows probe-loss → declaration →
  ///    handle_fe_crash;
  ///  * reseed_at  — fleet-wide FE hash reseed (§7.5).
  /// All three are pure functions of (config, seed) at fire time.
  void schedule_churn(common::Duration offload_at, common::Duration crash_at,
                      common::Duration reseed_at);
  /// Node crashed by the churn script (0 until the crash fires).
  sim::NodeId crashed_fe() const { return crashed_fe_; }

  void start_traffic();
  void stop_traffic();

  const std::vector<tables::VnicId>& server_vnics() const { return servers_; }
  const std::vector<std::unique_ptr<CpsWorkload>>& workloads() const {
    return workloads_;
  }

  /// FNV-1a digest of every workload/network/controller counter that the
  /// simulation determines: two identically-seeded runs must match exactly.
  std::uint64_t fingerprint() const;

 private:
  core::Testbed& bed_;
  FleetScenarioConfig config_;
  std::vector<tables::VnicId> servers_;
  std::vector<std::size_t> server_switches_;
  std::vector<std::size_t> client_switches_;
  std::vector<std::unique_ptr<CpsWorkload>> workloads_;
  std::vector<double> pair_load_scale_;
  sim::NodeId crashed_fe_ = 0;
};

}  // namespace nezha::workload
