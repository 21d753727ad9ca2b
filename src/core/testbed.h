// Testbed: wires an event loop, topology, underlay network, gateway map,
// a fleet of vSwitches, the Nezha controller and the health monitor into a
// ready-to-drive cluster — the programmatic equivalent of the paper's
// small-scale testbed (§6.1). Used by integration tests, benches and the
// examples.
//
// Sharded mode (DESIGN.md §13): the fleet is partitioned per rack into
// config.shards shards, each owning its own EventLoop, Network and (with
// telemetry on) Hub; shard 0 also hosts the control plane. With more than
// one shard, run_for() drives them in lockstep epochs through a
// sim::ShardedEngine on config.threads worker threads. shards = 1 (the
// default) builds no engine: run_for() runs shard 0's loop directly.
//
// Thread-affinity rules for sharded runs (enforced where cheap, documented
// here otherwise):
//  * Control-plane workflows (controller offload/scale/failover pushes,
//    monitor crash callbacks) mutate vSwitches across shards, so the
//    Testbed routes them through the engine's epoch-fenced quiesce
//    protocol (DESIGN.md §15): each runs at an epoch barrier with every
//    worker parked, in deterministic (due, seq) order — so offload
//    activation, churn and failover are safe and thread-invariant at ANY
//    thread count.
//  * Each half of a CpsWorkload runs on its own endpoint vSwitch's loop and
//    takes that VM's packets from its adapter's sink; the halves meet only
//    through packets, so the endpoints may sit on any shards.
//  * Pure packet traffic — including BE→FE offload detours — may cross
//    shards freely at any thread count; that is what the token outboxes
//    are for.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/controller.h"
#include "src/core/link_prober.h"
#include "src/core/monitor.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"
#include "src/sim/topology.h"
#include "src/tables/vnic_server_map.h"
#include "src/telemetry/hub.h"
#include "src/vswitch/vswitch.h"

namespace nezha::core {

struct TestbedConfig {
  std::size_t num_vswitches = 16;
  sim::TopologyConfig topology;
  sim::NetworkConfig network;
  vswitch::VSwitchConfig vswitch;
  ControllerConfig controller;
  MonitorConfig monitor;
  /// Observability plane. When `telemetry.enabled` the Testbed builds a
  /// telemetry::Hub, hands it to the network / every vSwitch / the
  /// controller / the monitor, registers the standard gauge set
  /// (per-vSwitch CPU utilization, session-table occupancy and port queue
  /// depth; per-fabric-link queue depth; network delivery counters) and
  /// starts the periodic sampler. NOTE: a running sampler re-arms forever,
  /// so drive a telemetry-enabled testbed with run_for(), not loop().run().
  /// Sharded beds get one hub per shard (disjoint packet-id streams).
  telemetry::TelemetryConfig telemetry;
  /// Sharded engine: number of rack-aligned shard domains (clamped to the
  /// rack count). 1 = single-loop testbed, no engine.
  std::size_t shards = 1;
  /// Worker threads run_for() uses to drive the shards (clamped to
  /// [1, shards]). The simulation result is identical for every value.
  int threads = 1;
  /// Sparse-epoch fast-forward in the sharded engine (ablation knob;
  /// outcome-invariant either way).
  bool shard_fast_forward = true;
};

/// TestbedConfig preset for the fleet-scale 2-tier Clos testbed: enough
/// leaves for `num_vswitches` servers (plus the monitor node) at
/// `hosts_per_leaf` per rack, ECMP across `num_spines` spines. Small racks
/// (default 4 hosts) force a min-4-FE pool to spill across leaves, so
/// BE↔FE offload traffic competes for spine bandwidth.
TestbedConfig make_clos_testbed_config(std::size_t num_vswitches,
                                       std::uint32_t hosts_per_leaf = 4,
                                       std::uint32_t num_spines = 4,
                                       double oversubscription = 2.0);

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  /// Shard 0's loop and network: the control plane's home.
  sim::EventLoop& loop() { return loop_of_shard(0); }
  sim::Network& network() { return network_of_shard(0); }
  tables::VnicServerMap& gateway() { return gateway_; }
  Controller& controller() { return *controller_; }
  HealthMonitor& monitor() { return *monitor_; }
  LinkProber& link_prober() { return *link_prober_; }
  /// Null when config.telemetry.enabled was false; shard 0's hub otherwise.
  telemetry::Hub* telemetry() { return telemetry_of_shard(0); }

  // --- sharding ---
  std::size_t shard_count() const { return shards_.size(); }
  /// Null unless shard_count() > 1.
  sim::ShardedEngine* engine() { return engine_.get(); }
  std::uint32_t shard_of_node(sim::NodeId id) const {
    return shard_map_.shard_of_rack(topology_.tor_of(id));
  }
  sim::EventLoop& loop_of_shard(std::uint32_t s) { return *shards_[s].loop; }
  sim::Network& network_of_shard(std::uint32_t s) {
    return *shards_[s].network;
  }
  /// The loop/network that own vSwitch i (== loop()/network() at shards=1).
  sim::EventLoop& loop_of(std::size_t i) {
    return loop_of_shard(shard_of_node(static_cast<sim::NodeId>(i)));
  }
  sim::Network& network_of(std::size_t i) {
    return network_of_shard(shard_of_node(static_cast<sim::NodeId>(i)));
  }
  /// Null when config.telemetry.enabled was false.
  telemetry::Hub* telemetry_of_shard(std::uint32_t s) {
    return shards_[s].hub.get();
  }

  /// Fleet-wide network counter sums (single network's counters at
  /// shards = 1). Quiescent reads only on threaded runs.
  struct NetTotals {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t exported = 0;
    std::uint64_t imported = 0;
    std::uint64_t total_bytes = 0;
    std::vector<std::uint64_t> spine_bytes;
  };
  NetTotals net_totals() const;

  /// Schedules a control-plane action at sim-time `at`: a fenced section
  /// on a sharded bed, a plain shard-0 loop event otherwise. The hook
  /// scenario drivers (FleetScenario churn, chaos scripts) use to
  /// fire mid-window control that may touch any shard.
  void schedule_control(common::TimePoint at, std::function<void()> fn);

  /// Starts §C.1 mutual probing on every (BE, FE) path of an offloaded
  /// vNIC; link failures route to Controller::handle_link_failure.
  void watch_fe_links(tables::VnicId id);

  std::size_t size() const { return switches_.size(); }
  vswitch::VSwitch& vswitch(std::size_t i) { return *switches_.at(i); }

  /// Underlay IP assigned to vSwitch i (10.200.x.y scheme).
  static net::Ipv4Addr underlay_ip(std::size_t i) {
    return net::Ipv4Addr(10, 200, static_cast<std::uint8_t>(i / 250),
                         static_cast<std::uint8_t>(i % 250 + 1));
  }

  /// Creates a vNIC on vSwitch i and registers it with the controller
  /// (publishing its placement at the gateway). Returns the hosting switch.
  vswitch::VSwitch& add_vnic(std::size_t i, const vswitch::VnicConfig& config,
                             bool stateful_decap = false);

  /// Convenience: watch every vSwitch that currently hosts FEs.
  void watch_fe_hosts();

  void run_for(common::Duration d) {
    if (engine_ != nullptr) {
      engine_->run_until(loop().now() + d, threads_);
    } else {
      loop().run_until(loop().now() + d);
    }
  }

 private:
  /// One shard domain. Heap-held members keep their addresses stable for
  /// the vSwitches, workloads and engine that point at them.
  struct Shard {
    std::unique_ptr<sim::EventLoop> loop;
    std::unique_ptr<sim::Network> network;
    std::unique_ptr<telemetry::Hub> hub;  // null without telemetry
  };

  void wire_telemetry(const telemetry::TelemetryConfig& cfg);
  void wire_shard_telemetry(std::uint32_t shard, telemetry::Hub* hub);

  tables::VnicServerMap gateway_;
  sim::Topology topology_;
  sim::ShardMap shard_map_;
  int threads_ = 1;
  std::vector<Shard> shards_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::vector<std::unique_ptr<vswitch::VSwitch>> switches_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<HealthMonitor> monitor_;
  std::unique_ptr<LinkProber> link_prober_;
  /// SLO probe-loss lag, in sampler ticks: how long probe replies may
  /// trail probe sends before counting as loss (derived from the monitor
  /// probe timeout and the sampler period in the constructor).
  std::uint32_t slo_probe_lag_ticks_ = 4;
};

}  // namespace nezha::core
