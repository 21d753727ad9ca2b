// The SmartNIC vSwitch dataplane.
//
// One class implements all three roles a production vSwitch plays under
// Nezha (the paper stresses Nezha changes <5% of vSwitch code — the roles
// share the same fast/slow path machinery):
//
//  * LOCAL:   traditional processing (Fig 1) — slow-path rule chain on
//             cache miss, fast-path session-table hits, for hosted vNICs.
//  * BE:      for offloaded hosted vNICs — keeps ONLY session states; TX
//             packets pick up a state snapshot and are forwarded to an FE
//             chosen by 5-tuple hash; RX packets arrive from FEs carrying
//             pre-actions and are finalized locally (Fig 5).
//  * FE:      hosts frontend instances for other servers' vNICs — stateless
//             rule tables + cached flows; finalizes TX packets using the
//             carried state; annotates RX packets with pre-actions and
//             forwards them to the BE; emits notify packets when a rule
//             lookup contradicts the carried state (§3.2.2).
//
// CPU costs are charged per the cost model; memory for rule tables, session
// states and flow caches is charged to the two pools, so every bottleneck
// in §2.2.2 is observable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/flow/session_table.h"
#include "src/policy/fe_policy.h"
#include "src/net/packet.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/node.h"
#include "src/tables/cost_model.h"
#include "src/tables/rule_set.h"
#include "src/tables/vnic_server_map.h"
#include "src/telemetry/trace_event.h"
#include "src/vswitch/counters.h"
#include "src/vswitch/learned_map.h"
#include "src/vswitch/resources.h"
#include "src/vswitch/vnic.h"

namespace nezha::telemetry {
class Hub;
}

namespace nezha::vswitch {

/// Health probes (§4.4) are flow-directed straight to the vSwitch VF by
/// destination port, bypassing the other hypervisors on the SmartNIC.
inline constexpr std::uint16_t kHealthProbePort = 54321;
/// Replies to FE-BE mutual link probes (§C.1) arrive on this port; the
/// receiving vSwitch hands them to the registered link prober instead of
/// the data path.
inline constexpr std::uint16_t kLinkProbeReplyPort = 54322;

struct VSwitchConfig {
  CpuConfig cpu;
  /// Slow-path memory for vNIC rule tables (limits #vNICs).
  std::size_t rule_memory_bytes = 2ull * 1024 * 1024 * 1024;
  /// Fast-path memory for the session table / flow caches / BE states
  /// (limits #concurrent flows).
  std::size_t session_memory_bytes = 1ull * 1024 * 1024 * 1024;
  tables::CostModel cost;
  common::Duration learning_interval = common::milliseconds(200);
  flow::SessionTableConfig session_config;  // TTLs; capacity comes from pools
  /// Period of the background aging sweep.
  common::Duration aging_period = common::seconds(1);
  /// FE selection hash. Nezha's state-locality means bidirectional flows
  /// CAN go to different FEs (§3.2.3) — but doing so duplicates the rule
  /// chain execution and the cached flow per direction. The default hashes
  /// the canonical (direction-insensitive) tuple so one session maps to one
  /// FE, maximizing cache friendliness; set false to split directions
  /// (the ablation bench quantifies the cost).
  bool session_consistent_fe_hash = true;
  /// §7.1 variable-length states: most sessions use 5–8B of the fixed 64B
  /// state allocation. When enabled, session entries reserve an
  /// average-sized variable allocation instead of the fixed one, raising
  /// #concurrent-flows capacity by up to 64B/8B = 8x.
  bool variable_length_states = false;
  std::size_t variable_state_avg_bytes = 8;
  /// CPU completion coalescing (DESIGN.md §11): when > 0, per-packet CPU
  /// completions are queued and drained in batches at multiples of this
  /// window (up to kCpuBurst per drain event) instead of one event each.
  /// Changes op timing (completions land at the boundary at or after their
  /// exact done time), so default 0 keeps unit-test timing exact;
  /// throughput benches opt in.
  common::Duration cpu_burst_window = 0;
};

/// A frontend instance: one offloaded vNIC's stateless tables hosted on a
/// remote (idle) vSwitch.
struct FrontendInstance {
  tables::VnicId vnic = 0;
  tables::OverlayAddr addr;
  tables::RuleTableSet rules;
  flow::SessionTable flow_cache;
  tables::Location be_location;
  bool stateful_decap = false;
};

class VSwitch : public sim::Node {
 public:
  VSwitch(sim::NodeId id, std::string name, net::Ipv4Addr underlay_ip,
          sim::EventLoop& loop, sim::Network& network,
          const tables::VnicServerMap& gateway_map,
          VSwitchConfig config = {});

  const VSwitchConfig& config() const { return config_; }
  tables::Location location() const {
    return tables::Location{underlay_ip(), mac()};
  }
  /// The event loop this vSwitch runs on — on a sharded engine, its owning
  /// shard's loop. Deferred controller work that mutates vSwitch state must
  /// be scheduled here, never on the controller's own loop: a continuation
  /// on the wrong loop would race with the owning shard's packet processing
  /// once the engine goes multi-threaded.
  sim::EventLoop& loop() { return loop_; }
  /// The Network this vSwitch sends through — its owning shard's. Its
  /// egress port lives there, so read the port backlog from it.
  const sim::Network& network() const { return network_; }

  // ---------- vNIC lifecycle ----------
  /// Adds a hosted vNIC; fails when slow-path memory cannot hold its rule
  /// tables (#vNICs bottleneck).
  common::Status add_vnic(const VnicConfig& config, bool stateful_decap = false);
  void remove_vnic(tables::VnicId id);
  Vnic* vnic(tables::VnicId id);
  const Vnic* find_vnic(tables::VnicId id) const;
  std::size_t vnic_count() const { return vnics_.size(); }

  // ---------- VM-side I/O ----------
  using VmDeliveryFn =
      std::function<void(tables::VnicId, const net::Packet&)>;
  void set_vm_delivery(VmDeliveryFn fn) { vm_delivery_ = std::move(fn); }

  /// TX entry point: the hosted VM hands the vSwitch a packet.
  void from_vm(tables::VnicId vnic_id, net::Packet pkt);

  // ---------- network side ----------
  void receive(net::Packet pkt) override;
  /// Burst delivery: software-prefetches the session-table probe path for
  /// every packet in the burst, then processes them in arrival order —
  /// results identical to per-packet receive().
  void receive_burst(net::Packet* pkts, std::size_t n) override;

  // ---------- Nezha configuration (driven by core::Controller) ----------
  /// Installs an FE instance for a remote vNIC, cloning the given rule
  /// tables; fails when rule memory is exhausted.
  common::Status install_frontend(const VnicConfig& vnic_config,
                                  const tables::RuleTableSet& rules,
                                  tables::Location be_location,
                                  bool stateful_decap);
  void remove_frontend(tables::VnicId id);
  FrontendInstance* frontend(tables::VnicId id);
  std::size_t frontend_count() const { return frontends_.size(); }

  /// BE transitions (§4.2).
  common::Status begin_offload(tables::VnicId id,
                               std::vector<tables::Location> fes,
                               common::TimePoint dual_running_until);
  void finalize_offload(tables::VnicId id);
  common::Status begin_fallback(tables::VnicId id,
                                common::TimePoint dual_running_until);
  void finalize_fallback(tables::VnicId id);
  /// Scale-out/-in and failover adjust the FE set (§4.3/§4.4).
  void update_fe_locations(tables::VnicId id,
                           std::vector<tables::Location> fes);

  /// Invalidate cached flows after a rule-table change (§3.2.2).
  void invalidate_cached_flows(tables::VnicId id);

  /// §7.5 elephant-flow isolation: pins one flow of an offloaded vNIC to a
  /// dedicated FE, overriding the hash. Applies to the TX path (the BE's
  /// choice); clear with unpin_flow.
  void pin_flow(tables::VnicId id, const net::FiveTuple& ft,
                tables::Location fe);
  void unpin_flow(tables::VnicId id, const net::FiveTuple& ft);

  /// §7.5 hash reseeding: changes the seed of the 5-tuple FE-selection
  /// hash (pushed fleet-wide by the controller so both directions keep
  /// mapping to one FE). Ongoing flows rehash — at worst one extra rule
  /// lookup per flow at its new FE.
  void set_fe_hash_seed(std::uint64_t seed) { fe_hash_seed_ = seed; }
  std::uint64_t fe_hash_seed() const { return fe_hash_seed_; }

  /// FE-selection policy (DESIGN.md §14) used by both hash sites (sender
  /// resolve_dst and BE be_tx). Pushed fleet-wide by the controller — like
  /// the hash seed, both directions must agree for session-consistent FE
  /// mapping. Null resets to the default static hash.
  void set_fe_policy(const policy::FeSelectionPolicy* p) {
    fe_policy_ = p != nullptr
                     ? p
                     : &policy::policy_for(policy::PolicyKind::kStaticHash);
  }
  const policy::FeSelectionPolicy& fe_policy() const { return *fe_policy_; }
  /// Fleet-wide FE weight book for load-aware policies (controller-pushed;
  /// copied, so the control plane can keep mutating its own copy).
  void set_fe_weights(const policy::FeWeightBook& book) { fe_weights_ = book; }
  const policy::FeWeightBook& fe_weights() const { return fe_weights_; }

  /// §C.1 mutual FE-BE link probing: replies to probes sent by this node's
  /// prober land here.
  using LinkProbeReplyFn = std::function<void(const net::Packet&)>;
  void set_link_probe_reply_handler(LinkProbeReplyFn fn) {
    link_probe_reply_ = std::move(fn);
  }

  // ---------- telemetry ----------
  /// Connects the flight recorder / metrics plane (null = off). Registers
  /// the shared per-hop-class latency histograms on first attach.
  void set_telemetry(telemetry::Hub* hub);

  CpuModel& cpu() { return cpu_; }
  const CpuModel& cpu() const { return cpu_; }
  MemoryPool& rule_memory() { return rule_pool_; }
  const MemoryPool& rule_memory() const { return rule_pool_; }
  MemoryPool& session_memory() { return session_pool_; }
  const MemoryPool& session_memory() const { return session_pool_; }
  common::Counter& counters() { return counters_; }
  const common::Counter& counters() const { return counters_; }
  std::uint64_t slow_path_lookups() const { return slow_lookups_; }
  std::uint64_t fast_path_hits() const { return fast_hits_; }
  std::uint64_t notify_sent() const { return notify_sent_; }
  std::uint64_t vm_deliveries() const { return vm_deliveries_; }
  std::uint64_t mirrored() const { return mirrored_; }

  /// §7.4 child vNICs: deliveries are counted against the I/O adapter they
  /// share — the parent's for a child vNIC, its own otherwise. The guest
  /// demultiplexes children by tag on that one adapter.
  std::uint64_t adapter_deliveries(tables::VnicId adapter) const {
    auto it = adapter_deliveries_.find(adapter);
    return it == adapter_deliveries_.end() ? 0 : it->second;
  }

  /// CPU cycles attributed to hosting FEs for remote vNICs vs serving local
  /// vNICs — the discriminator in Fig 8's scale-out vs scale-in decision.
  double fe_cycles() const { return fe_cycles_; }
  double local_cycles() const { return local_cycles_; }
  /// Resets the attribution window (called by the controller each
  /// monitoring period).
  void reset_cycle_attribution() { fe_cycles_ = local_cycles_ = 0.0; }

  /// The unified session store. State always lives here in one copy (that
  /// IS Nezha's BE store); pre-actions are cached per entry only for vNICs
  /// processed locally, so offloaded vNICs' entries are smaller — the
  /// memory margin behind the #concurrent-flows gain.
  flow::SessionTable& sessions() { return sessions_; }
  const flow::SessionTable& sessions() const { return sessions_; }

  /// Starts the periodic aging sweep (optional; benches that only measure
  /// steady-state throughput can skip it).
  void start_aging();

  /// Deterministic-order iteration over hosted vNICs / FE instances for the
  /// invariant checker (sorted by id; the underlying maps are unordered).
  template <typename Fn>
  void for_each_vnic(Fn&& fn) const {
    for (tables::VnicId id : sorted_keys(vnics_)) fn(vnics_.at(id));
  }
  template <typename Fn>
  void for_each_frontend(Fn&& fn) const {
    for (tables::VnicId id : sorted_keys(frontends_)) fn(frontends_.at(id));
  }

 private:
  template <typename Map>
  static std::vector<tables::VnicId> sorted_keys(const Map& map) {
    std::vector<tables::VnicId> keys;
    keys.reserve(map.size());
    for (const auto& [id, v] : map) keys.push_back(id);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  // --- datapath stages ---
  void local_tx(Vnic& v, net::Packet pkt);
  void be_tx(Vnic& v, net::Packet pkt);
  void local_rx(Vnic& v, net::Packet pkt);
  void be_rx(Vnic& v, net::Packet pkt);
  void be_notify(Vnic& v, const net::Packet& pkt);
  void fe_tx(FrontendInstance& fe, net::Packet pkt);
  void fe_rx(FrontendInstance& fe, net::Packet pkt);
  void health_probe_reply(const net::Packet& pkt);

  // --- helpers ---
  void inc(Ctr c) { counters_.inc(static_cast<std::size_t>(c)); }

  /// Charges `cycles`; on acceptance schedules `then` at completion and
  /// returns true, otherwise counts an overload drop. Cold paths only —
  /// capturing a Packet in `then` heap-allocates; the datapath uses the
  /// pooled variants below.
  bool consume_cpu(double cycles, telemetry::Stage stage,
                   std::function<void()> then);

  /// Datapath variants: the deferred work lives in a pooled PendingOp slab
  /// and the scheduled closure captures only {this, slot} (fits
  /// std::function's inline buffer — no heap allocation per packet).
  /// Charges cycles and, at completion, sends `pkt` encapped toward `dst`.
  void consume_cpu_send(double cycles, net::Packet pkt,
                        const tables::Location& dst, telemetry::Stage stage);
  /// Charges cycles and, at completion, delivers `pkt` to the VM side,
  /// bumping *adapter_count (a node-stable pointer into
  /// adapter_deliveries_).
  void consume_cpu_deliver(double cycles, net::Packet pkt,
                           tables::VnicId vid, std::uint64_t* adapter_count,
                           telemetry::Stage stage);
  /// Charges cycles with no completion work (verdict-drop paths).
  void consume_cpu_noop(double cycles, telemetry::Stage stage);

  /// Flight-recorder helpers; single pointer test when telemetry is off.
  void record_cpu(telemetry::EventKind kind, telemetry::Stage stage,
                  const net::Packet* pkt, double cycles,
                  common::TimePoint done);
  void record_mode(tables::VnicId vnic, VnicMode from, VnicMode to);

  std::uint32_t alloc_op_slot();
  void run_op(std::uint32_t slot);
  /// EventLoop raw-callback shim for the per-packet CPU-completion events;
  /// avoids a std::function per switched packet.
  static void run_op_thunk(void* self, std::uint64_t slot) {
    static_cast<VSwitch*>(self)->run_op(static_cast<std::uint32_t>(slot));
  }

  /// Session-entry creation with pool accounting (key + state bytes); null
  /// when fast-path memory is full.
  flow::SessionEntry* get_or_create_session(const flow::SessionKey& key);

  /// FE flow-cache entry creation with pool accounting (key + pre-actions).
  flow::SessionEntry* get_or_create_cache_entry(FrontendInstance& fe,
                                                const flow::SessionKey& key);

  /// Ensures `entry` of `table` holds fresh pre-actions for `tx_ft` under
  /// `rules`, running the slow-path chain on miss/staleness (adding its
  /// cycles to *cycles and, on a state-bearing table, reserving cache
  /// memory). Returns the pre-actions to use — `fallback` when caching
  /// memory is unavailable. A returned pooled value is valid only until the
  /// next set_pre_actions(), clear() or invalidate_pre_actions() on `table`
  /// (SessionTable::pre_actions()).
  const flow::PreActions& ensure_pre_actions(flow::SessionTable& table,
                                             flow::SessionEntry& entry,
                                             const tables::RuleTableSet& rules,
                                             const net::FiveTuple& tx_ft,
                                             double* cycles,
                                             flow::PreActions& fallback);

  /// Resolves the underlay location serving an overlay address, hashing
  /// across FEs for offloaded placements.
  std::optional<tables::Location> resolve_dst(const tables::OverlayAddr& addr,
                                              const net::FiveTuple& ft);

  void send_encapped(net::Packet pkt, const tables::Location& dst);

  /// Sends a copy of `pkt` to the mirror collector named in the pre-action.
  void mirror_copy(const net::Packet& pkt, const flow::DirPreAction& pre);

  /// Releases the session-pool bytes an evicted/erased entry had reserved.
  void release_session_entry(const flow::SessionEntry& entry);

  VSwitchConfig config_;
  sim::EventLoop& loop_;
  sim::Network& network_;
  CpuModel cpu_;
  MemoryPool rule_pool_;
  MemoryPool session_pool_;
  LearnedVnicMap learned_map_;

  std::unordered_map<tables::VnicId, Vnic> vnics_;
  std::unordered_map<tables::VnicId, FrontendInstance> frontends_;
  /// Single per-packet dispatch point for plain overlay packets: one lookup
  /// resolves both "is there an FE for this address" and "is it a hosted
  /// vNIC". Pointers are node-stable (unordered_map values never move).
  struct AddrDispatch {
    FrontendInstance* fe = nullptr;
    Vnic* vnic = nullptr;
  };
  std::unordered_map<tables::OverlayAddr, AddrDispatch,
                     tables::OverlayAddrHash>
      dispatch_by_addr_;
  /// Elephant-flow pins: (vnic, canonical tuple) → dedicated FE (§7.5).
  std::unordered_map<flow::SessionKey, tables::Location, flow::SessionKeyHash>
      pinned_flows_;
  std::uint64_t fe_hash_seed_ = 0;
  const policy::FeSelectionPolicy* fe_policy_ =
      &policy::policy_for(policy::PolicyKind::kStaticHash);
  policy::FeWeightBook fe_weights_;
  LinkProbeReplyFn link_probe_reply_;
  std::unordered_map<tables::VnicId, std::uint64_t> adapter_deliveries_;

  flow::SessionTable sessions_;  // unified store; see sessions() docs

  /// Deferred-work slab for the CPU model: packets waiting out their cycle
  /// cost live here, addressed by slot (see consume_cpu_send/_deliver).
  enum class OpKind : std::uint8_t { kSend = 0, kDeliver = 1 };
  struct PendingOp {
    net::Packet pkt;
    tables::Location dst;
    std::uint64_t* adapter_count = nullptr;
    common::TimePoint done = 0;  // CPU completion time (burst mode)
    tables::VnicId vid = 0;
    OpKind kind = OpKind::kSend;
    std::uint8_t stage = 0;  // telemetry::Stage of the charging site
  };
  std::vector<PendingOp> op_slab_;
  std::vector<std::uint32_t> op_free_;

  /// Max CPU completions retired per drain event in burst mode.
  static constexpr std::size_t kCpuBurst = 32;

  /// Schedules run_op(slot) at `done`: its own event (exact mode) or via
  /// the completion queue (burst mode). The CPU model is a FIFO queue
  /// server, so done times are monotone and the queue drains in completion
  /// order.
  void schedule_op(std::uint32_t slot, common::TimePoint done);
  void op_drain();
  static void op_drain_thunk(void* self, std::uint64_t) {
    static_cast<VSwitch*>(self)->op_drain();
  }
  void opq_push(std::uint32_t slot);
  std::uint32_t opq_front() const { return op_queue_[opq_head_]; }

  /// Burst-mode completion queue: a circular FIFO of PendingOp slots
  /// (power-of-two capacity), plus whether a drain event is outstanding.
  std::vector<std::uint32_t> op_queue_;
  std::size_t opq_head_ = 0;
  std::size_t opq_count_ = 0;
  bool opq_drain_scheduled_ = false;

  VmDeliveryFn vm_delivery_;
  common::Counter counters_;
  telemetry::Hub* telemetry_ = nullptr;
  /// Interned metric ids, resolved once in set_telemetry (0xffffffff = none).
  std::uint32_t lat_local_rx_us_ = 0xffffffffu;
  std::uint32_t lat_be_rx_us_ = 0xffffffffu;
  std::uint64_t slow_lookups_ = 0;
  std::uint64_t fast_hits_ = 0;
  std::uint64_t notify_sent_ = 0;
  std::uint64_t vm_deliveries_ = 0;
  std::uint64_t mirrored_ = 0;
  double fe_cycles_ = 0.0;
  double local_cycles_ = 0.0;
  bool aging_started_ = false;
};

}  // namespace nezha::vswitch
