// Scenario recipes shared by the paper benches and the golden tests: each
// bed that more than one of them builds is written here once, so a change
// to its shape reaches every bench and golden built on it. Every recipe
// runs in VPC kVpc; all but the TCP pair use one tenant: server vNIC
// kServer at 10.0.0.100, client c as vNIC c+1 at 10.0.1.(c+1). Linked into
// the bench and test binaries only, never into the core `nezha` library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/core/testbed.h"
#include "src/tables/acl.h"
#include "src/workload/cps_workload.h"
#include "src/workload/fleet_model.h"

namespace nezha::support {

inline constexpr std::uint32_t kVpc = 7;
inline constexpr tables::VnicId kServer = 100;

/// A testbed and the CPS clients that load it. The clients are declared
/// after the bed, so they are destroyed first.
struct CpsBed {
  std::unique_ptr<core::Testbed> bed;
  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;

  void start();
  void stop();
  /// Connections completed, summed over the clients.
  std::uint64_t completed() const;
};

// ------------------------------------------------------ golden e2e bed

/// Burst windows of the production fast path: the largest windows whose
/// event-interleaving distortion stays within 0.02% of the exact-timing
/// run. (wnet=256µs cost −0.5% packets, wcpu=128µs −4%: quantization delay
/// compounds through the closed-loop handshake RTT, so these are the knee,
/// not the maximum.) Aging at the closed-TTL cadence keeps the dead-entry
/// population ~10x smaller under heavy churn and is fingerprint-neutral.
inline constexpr common::Duration kNetBurstWindow = common::microseconds(192);
inline constexpr common::Duration kCpuBurstWindow = common::microseconds(64);
/// CpsWorkloadConfig::timer_window of a client on a burst bed.
inline constexpr common::Duration kTimerWindow = common::microseconds(64);
inline constexpr common::Duration kBurstAgingPeriod = common::milliseconds(100);

/// Sets the network RX, vSwitch CPU and aging windows above.
void use_burst_windows(core::TestbedConfig& cfg);

/// A realistic mixed tenant ACL rule: prefix scopes, port ranges, a spread
/// of protocols and directions (what the (proto, direction) partitioning
/// and the priority merge have to handle in the field). The rule stream
/// from Rng(0xe2e) is part of the e2e bed's identity.
tables::AclRule random_acl_rule(common::Rng& rng);

/// 8 vSwitches, the production cost model, no automatic offload or
/// scaling; with `bursts`, the burst windows.
core::TestbedConfig e2e_config(bool bursts);

/// The bed that defines both goldens: server vNIC kServer on vSwitch 0
/// behind a 1000-rule drop ACL drawn from Rng(0xe2e) and scoped to address
/// space the traffic never uses (the chain runs at full cost, the traffic
/// still flows); two 128-deep closed-loop clients on vSwitches 1 and 2
/// (seeds 300, 301; timer window kTimerWindow with `bursts`); aging started
/// on every vSwitch. The clients are not started.
CpsBed e2e_bed(const core::TestbedConfig& cfg, bool bursts);

/// What the e2e goldens pin: packets the underlay delivered and
/// connections the clients completed.
struct E2eFingerprint {
  std::uint64_t delivered = 0;
  std::uint64_t completed = 0;
};

/// Runs the e2e bed's clients for the golden 4 s and returns the
/// fingerprint.
E2eFingerprint run_e2e(CpsBed& s);

// ------------------------------------------------- hot-server CPS bed

/// vSwitch hosting the hot server (a high id: FEs are picked from low
/// ids); the clients sit on 32..35.
inline constexpr std::size_t kHotServerHost = 30;

/// 40 vSwitches (8 per rack on `clos`) with a scaled-down SmartNIC: 2 cores
/// at 0.25 GHz, so the gain-vs-FE shape stays while the simulation stays
/// fast, and a 16 ms queue bound that keeps the buffer comparable in
/// packets to the full-scale NIC. Production cost model; no automatic
/// offload or scaling.
core::TestbedConfig hot_server_config(bool clos);

struct HotServerLoad {
  int server_vcpus = 16;
  /// Closed loop (netperf TCP_CRR style) when > 0 ...
  int concurrency = 0;
  /// ... else each client's open-loop attempt rate.
  double attempts_per_sec = 0;
  /// Client c uses seed seed_base + c.
  std::uint64_t seed_base = 0;
};

/// Server vNIC kServer (8 MB of rules) on kHotServerHost, behind a guest
/// kernel of `load.server_vcpus` at 16.5K CPS per core; four clients with
/// 64-vCPU guests that never bottleneck. The clients are not started.
CpsBed hot_server_bed(const core::TestbedConfig& cfg,
                      const HotServerLoad& load);

/// With `fes` > 0, offloads the server onto that many frontends and waits
/// 4 s for activation (0 = no Nezha). Then runs the clients for `window`
/// and returns their summed CPS over [warmup, window) of it. Returns 0 if
/// the offload fails.
double run_hot_server(CpsBed& s, std::size_t fes, common::Duration warmup,
                      common::Duration window);

// ------------------------------------------------------ offloaded pair

/// vSwitch hosting the pair's server; client c sits on kPairClientHost + c.
inline constexpr std::size_t kPairServerHost = 10;
inline constexpr std::size_t kPairClientHost = 12;

/// 16 vSwitches (4 per rack on `clos`), no automatic offload or scaling.
core::TestbedConfig pair_config(bool clos);

/// Adds the server vNIC and `clients` client vNICs.
void add_pair(core::Testbed& bed, int clients = 1);

/// UDP flow from client `client` to the server's port 80.
net::FiveTuple pair_flow(std::uint16_t src_port, int client = 0);

/// Offloads the server onto 4 FEs and waits 4 s for activation.
void offload_pair(core::Testbed& bed);

/// Steady traffic from client 0: a burst of one 100-byte packet on each of
/// `flows` flows (source ports 20000 + f) now and every `period` until the
/// client's clock passes `until`. `on_burst` (may be empty) runs after each
/// burst. The pump runs on the client's shard loop.
void pump_pair(core::Testbed& bed, int flows, common::Duration period,
               common::TimePoint until, std::function<void()> on_burst);

/// Crashes the server's first FE that is not the client's host, on the
/// network that owns it.
void crash_pair_fe(core::Testbed& bed);

// ------------------------------------------------ offloaded TCP pair

/// 8 vSwitches, no automatic offload or scaling, and gateway-map refreshes
/// pushed past every measurement window (a refresh is control-plane work
/// and may allocate).
core::TestbedConfig tcp_pair_config();

/// Client vNIC 1 (10.0.0.1) on vSwitch 0 and server vNIC 2 (10.0.0.2) on
/// vSwitch 1; offloads the server onto the default FE pool and waits 4 s
/// for activation. Returns false if the controller refused the offload.
bool add_offloaded_tcp_pair(core::Testbed& bed);

/// TCP flow from client port `sport` to the server's port 80.
net::FiveTuple tcp_pair_flow(std::uint16_t sport);

/// Pushes `iterations` ACK pairs on `sport`'s flow (client → server, then
/// server → client) through the datapath, running the bed 1 ms after each.
void pump_tcp_pair(core::Testbed& bed, std::uint16_t sport, int iterations);

// --------------------------------------------------- offload replays

/// vNIC i+1 of a fleet-wide offload replay: a unique overlay address in
/// VPC kVpc and 2 MB of rules.
vswitch::VnicConfig numbered_vnic(int i);

// ------------------------------------------------------ fleet scenarios

/// Pairs with attempts but no completed connection: a silent pair loss.
std::size_t stalled_pairs(const workload::FleetScenario& scenario);

}  // namespace nezha::support
