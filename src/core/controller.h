// The Nezha controller (§4): detects overloaded vSwitches, orchestrates
// user-transparent offload/fallback via the dual-stage workflow, scales the
// remote pool out/in per Fig 8, and performs FE failover with the
// minimum-4-FE rule.
//
// Control-plane operations are modeled with sampled configuration latencies
// (lognormal), so activation completion times form a distribution comparable
// to Table 4. The dataplane consequences (stale senders hitting retained
// tables, rehashed flows missing FE caches) emerge from the vSwitch and
// learned-map models rather than being scripted.
//
// Threaded control plane (DESIGN.md §15): every continuation that touches
// cross-shard state — monitor ticks, gateway publishes, fleet-wide config
// applies — runs as a fenced section of the engine that drives the bed
// (ShardedEngine::schedule_fenced), at an epoch barrier with every worker
// parked, at every shard and thread count. Continuations that only mutate
// the controller's own records stay plain events on its loop, and vSwitch
// mutations go on the owning vSwitch's loop.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/policy/fe_policy.h"
#include "src/policy/load_index.h"
#include "src/sim/network.h"
#include "src/tables/vnic_server_map.h"
#include "src/telemetry/trace_event.h"
#include "src/vswitch/vswitch.h"

namespace nezha::telemetry {
class Hub;
}

namespace nezha::core {

struct ControllerConfig {
  /// Scale-out/-in trigger on FE-hosting vSwitches (Fig 8).
  double scale_threshold = 0.40;
  /// Minimum #FEs (§4.4: maintain ≥ 4).
  std::size_t min_fes = 4;
  common::Duration monitor_period = common::milliseconds(500);
  common::Duration learning_interval = common::milliseconds(200);
  std::uint64_t seed = 0x6e657a6861ULL;  // "nezha"
  bool auto_offload = true;
  bool auto_scale = true;
  /// FE-selection strategy (DESIGN.md §14). The default static hash is the
  /// paper's behavior and keeps the golden fingerprints bit-identical; the
  /// controller pushes the policy to every vSwitch it manages.
  policy::PolicyKind fe_policy = policy::PolicyKind::kStaticHash;
};

class Controller {
 public:
  /// `loop` is shard 0's, the clock the controller keeps; `engine` drives
  /// every shard and runs the controller's cross-shard continuations as
  /// fenced sections. The fleet's crash bits and topology are read through
  /// the managed vSwitches' networks, which share one directory.
  Controller(sim::EventLoop& loop, sim::ShardedEngine& engine,
             tables::VnicServerMap& gateway, ControllerConfig config = {});

  const ControllerConfig& config() const { return config_; }

  /// Adds a vSwitch to the managed fleet (usable as FE pool and monitored
  /// for overload). vSwitches join in NodeId order from 0, as Testbed
  /// numbers them; any other id throws std::invalid_argument.
  void add_vswitch(vswitch::VSwitch* vs);

  /// Registers a tenant vNIC already hosted on `home` (home is its BE) and
  /// publishes its placement at the gateway.
  void register_vnic(vswitch::VSwitch* home,
                     const vswitch::VnicConfig& config, bool stateful_decap);

  /// Starts the periodic monitoring loop: a fenced tick every
  /// monitor_period.
  void start();

  // ---------- explicit operations (monitoring calls these too) ----------
  /// Runs the full offload workflow for a vNIC. num_fes = 0 uses the
  /// initial count of 4 FEs (App B.2). Returns an error when no suitable
  /// FE set exists or the vNIC is not in local mode.
  common::Status trigger_offload(tables::VnicId id, std::size_t num_fes = 0);
  common::Status trigger_fallback(tables::VnicId id);
  common::Status scale_out(tables::VnicId id, std::size_t additional,
                           const std::vector<sim::NodeId>& extra_exclude = {});
  /// Removes every FE hosted on the given vSwitch (local-priority scale-in).
  void scale_in_vswitch(sim::NodeId node);
  /// Immediate removal + min-FE replacement after a detected crash (§4.4).
  void handle_fe_crash(sim::NodeId node);
  /// §C.1: the BE↔FE path (not the FE itself) failed for one vNIC — remove
  /// that FE from that vNIC's pool only, replacing it if below the minimum.
  void handle_link_failure(tables::VnicId id, sim::NodeId fe_node);
  /// §7.5: pushes a new FE-selection hash seed to the whole fleet (sender
  /// and BE hashing must agree for session-consistent FE mapping). Used to
  /// redistribute traffic when 5-tuple hashing lands unevenly.
  void reseed_fe_hash(std::uint64_t seed);
  policy::PolicyKind fe_policy() const { return config_.fe_policy; }
  /// Recomputes per-FE weights from the latest monitor samples (CPU folded
  /// with the port backlog read on the owning shard — the same signals the
  /// telemetry registry's vs<i>.cpu_util / vs<i>.port_q gauges export) and
  /// pushes the book fleet-wide. monitor_tick calls this every
  /// kWeightUpdatePeriod under kLoadAwareWeighted; tests and benches may
  /// call it directly between quiescent windows. The book is built once and
  /// shared: every vSwitch points at the same immutable copy.
  void publish_fe_weights();
  const policy::FeWeightBook& fe_weights() const { return *weight_book_; }
  /// Samples every vSwitch's CPU utilization now (what monitor_tick does
  /// before deciding) without taking any scaling action — for driving
  /// publish_fe_weights from a bench that never start()s the controller.
  void refresh_fleet_sample();
  /// §7.2: VM live migration — re-point an offloaded vNIC's BE to a new
  /// vSwitch by updating the BE location config on its FEs (takes effect in
  /// <1ms, no gateway churn needed since senders address the FEs).
  common::Status migrate_backend(tables::VnicId id, vswitch::VSwitch* new_home);

  // ---------- queries ----------
  bool is_offloaded(tables::VnicId id) const;
  std::vector<sim::NodeId> fe_nodes_of(tables::VnicId id) const;
  vswitch::VSwitch* home_of(tables::VnicId id) const;
  /// All registered vNIC ids, sorted (deterministic iteration for the
  /// invariant checker).
  std::vector<tables::VnicId> vnic_ids() const;
  /// True while an offload/fallback workflow is in flight for the vNIC —
  /// the window in which BE/FE tables are intentionally dual-running.
  bool transition_pending(tables::VnicId id) const;

  // ---------- stats ----------
  std::uint64_t offload_events() const { return offload_events_; }
  std::uint64_t fallback_events() const { return fallback_events_; }
  std::uint64_t scale_out_events() const { return scale_out_events_; }
  std::uint64_t scale_in_events() const { return scale_in_events_; }
  std::uint64_t failover_events() const { return failover_events_; }
  /// FEs evicted by the push-aside policy to make room for another vNIC.
  std::uint64_t displacement_events() const { return displacement_events_; }
  std::uint64_t fes_provisioned_total() const { return fes_provisioned_; }
  /// Activation completion times (trigger → all traffic through FEs),
  /// one sample per offload event (Table 4).
  const common::Percentiles& offload_completion() const {
    return offload_completion_;
  }

  /// Telemetry hook (null = off): control-plane workflow transitions are
  /// recorded into the flight recorder (offload/fallback begin+done,
  /// scale-out/-in, failover).
  void set_telemetry(telemetry::Hub* hub) { telemetry_ = hub; }

 private:
  struct VnicRecord {
    vswitch::VnicConfig config;
    bool stateful_decap = false;
    vswitch::VSwitch* home = nullptr;
    std::vector<sim::NodeId> fe_nodes;
    bool offloaded = false;       // reaches true at begin_offload
    bool transition_pending = false;  // a workflow is in flight
  };

  struct SwitchState {
    vswitch::VSwitch* vs = nullptr;
    /// vs->network(): the owning shard's Network, which holds the port
    /// and, like every shard's, reads the bed's crash bits.
    const sim::Network* net = nullptr;
    vswitch::UtilizationSampler sampler;
  };
  // Tests read the sampled loads, place directly, and watch placements
  // start through a forwarding policy.
  friend struct ControllerTestPeer;

  common::Duration sample_config_latency();
  void monitor_tick();
  void record_ctrl(telemetry::EventKind kind, std::uint32_t node,
                   std::uint64_t a, std::uint64_t b = 0);

  /// Self-rescheduling fenced monitor tick at nominal `at + k*period`
  /// (periodic loop events cannot cross the quiesce protocol).
  void schedule_monitor_tick(common::TimePoint at);

  /// The managed vSwitch with this NodeId, or null.
  vswitch::VSwitch* switch_of(sim::NodeId node) const {
    return node < fleet_.size() ? fleet_[node].vs : nullptr;
  }

  /// Picks the best `count` idle vSwitches for a vNIC homed at `home`, best
  /// first, in policy::PlacementKey order (App B.1: same ToR, then the same
  /// aggregation block, then least-loaded), excluding nodes in `exclude`.
  /// Reads loads_ tier by tier and stops where nothing left can enter.
  std::vector<vswitch::VSwitch*> select_frontends(
      const vswitch::VSwitch& home, std::size_t count,
      const std::vector<sim::NodeId>& exclude) const;

  /// PAM-style push-aside (kPushAsideDisplacement only): when
  /// select_frontends comes up short, evicts FEs of *other* vNICs from the
  /// least-loaded busy neighbors — only from pools that stay >= min_fes —
  /// and returns those hosts for `requester`. Appends the chosen nodes to
  /// `exclude`.
  std::vector<vswitch::VSwitch*> displace_frontends(
      tables::VnicId requester, const vswitch::VSwitch& home,
      std::size_t count, std::vector<sim::NodeId>& exclude);

  /// select_frontends, then displace_frontends for a push-aside shortfall.
  std::vector<vswitch::VSwitch*> pick_frontends(
      tables::VnicId id, const vswitch::VSwitch& home, std::size_t count,
      std::vector<sim::NodeId> exclude);
  /// Adds `fes` to the pool, each installing a copy of `rules` on its own
  /// loop after a sampled config latency; returns when the last lands.
  common::TimePoint install_frontends(VnicRecord& rec,
                                      const std::vector<vswitch::VSwitch*>& fes,
                                      const tables::RuleTableSet& rules);
  /// Failover (§4.4, §C.1): erases `pos` from the pool, pushes the
  /// installed FEs to the BE and the gateway, replaces it below min_fes.
  void drop_from_pool(tables::VnicId id, VnicRecord& rec,
                      std::vector<sim::NodeId>::iterator pos);

  /// Scale-in of one vNIC's FE on one host: update BE config + gateway
  /// after a config push, retire the FE instance after the drain interval.
  void evict_frontend(tables::VnicId id, sim::NodeId node);

  /// The locations of the managed hosts in `nodes`, in order; with
  /// `installed`, only those whose FE instance of vNIC `id` is installed.
  std::vector<tables::Location> fe_locations(
      const std::vector<sim::NodeId>& nodes, tables::VnicId id,
      bool installed) const;
  /// Pushes a vNIC's current FE set to its home BE and the gateway.
  void apply_fe_locations(vswitch::VSwitch* home, tables::VnicId id);
  /// Pushes the current placement (FE set or BE) to the gateway.
  void publish_placement(const VnicRecord& rec);

  sim::EventLoop& loop_;
  sim::ShardedEngine& engine_;
  tables::VnicServerMap& gateway_;
  ControllerConfig config_;
  common::Rng rng_;

  // Both indexed by NodeId: vSwitches join the fleet in id order from 0.
  std::vector<SwitchState> fleet_;
  /// Each host's last sampled CPU utilization, ordered for placement. Only
  /// add_vswitch (push_back), refresh_fleet_sample and monitor_tick (set)
  /// write it, so the order never lags a sample.
  policy::LoadIndex loads_;
  std::unordered_map<tables::VnicId, VnicRecord> vnics_;
  std::unordered_map<tables::VnicId, common::TimePoint> last_scale_at_;

  std::uint64_t offload_events_ = 0;
  std::uint64_t fallback_events_ = 0;
  std::uint64_t scale_out_events_ = 0;
  std::uint64_t scale_in_events_ = 0;
  std::uint64_t failover_events_ = 0;
  std::uint64_t displacement_events_ = 0;
  std::uint64_t fes_provisioned_ = 0;
  const policy::FeSelectionPolicy* policy_;
  std::shared_ptr<const policy::FeWeightBook> weight_book_;
  common::TimePoint last_weight_push_ = 0;
  common::Percentiles offload_completion_;
  telemetry::Hub* telemetry_ = nullptr;
  bool started_ = false;
};

}  // namespace nezha::core
