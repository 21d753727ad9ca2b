// The underlay network: registers nodes, routes packets by underlay IP,
// models link bandwidth plus fabric latency, and injects node crashes for
// failover experiments.
//
// One link model: every sender port and, under a Clos topology
// (Topology::is_clos()), every leaf→spine uplink and spine→leaf downlink is
// a tail-drop FIFO described by one clock, the time its last reserved byte
// leaves. A packet reserves each link on its path through the same
// reserve() hop: it queues behind the backlog it finds, or is dropped when
// that backlog plus itself exceeds the link's queue capacity. The backlog
// at time t is max(0, busy_until − t) × rate, exact for a work-conserving
// FIFO, so drops and the queue gauges read the clock and no byte counter
// has to be released later. Cross-leaf Clos packets pick a spine by ECMP
// and contend for its uplink and downlink, so offload traffic genuinely
// competes for spine capacity.
//
// Every shard's Network shares the bed's one NodeDirectory, so send()
// resolves any destination with one probe, and a fault set through any
// shard's Network holds on every shard.
//
// Datapath memory model: a packet in flight lives in a pooled slab record
// (InFlight) addressed by a small slot index, and the scheduled completion
// captures only {this, slot} — small enough for std::function's inline
// buffer, so forwarding a packet performs no heap allocation. All per-packet
// lookups are dense-vector indexed: nodes/ports/crash bits by NodeId, fabric
// links by a precomputed (leaf, spine, direction) index, and the IP map is
// a common::FlatTable of inline {ip, node, shard} cells. A detached node's
// IP leaves the map, unless a later node attached at the same IP took it
// over.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/net/five_tuple.h"
#include "src/sim/event_loop.h"
#include "src/sim/node.h"
#include "src/sim/shard.h"
#include "src/sim/topology.h"

namespace nezha::telemetry {
class Hub;
}

namespace nezha::sim {

struct NetworkConfig {
  /// Per-server NIC port rate in bits per second (2x100G in the paper's
  /// testbed; a single logical 100G port suffices for the load model).
  double link_bps = 100e9;
  /// Egress queue capacity in bytes; beyond this, packets are tail-dropped.
  std::size_t egress_queue_bytes = 4 * 1024 * 1024;
  /// Clos only: per-direction leaf↔spine link rate. 0 derives it from the
  /// topology as link_bps * hosts_per_leaf / (num_spines * oversubscription),
  /// i.e. a leaf's host-facing capacity divided across its uplinks.
  double fabric_link_bps = 0;
  /// Clos only: tail-drop queue capacity per fabric link.
  std::size_t fabric_queue_bytes = 8 * 1024 * 1024;
  /// Clos only: seed mixed into ECMP spine selection so benches can explore
  /// different (deterministic) path placements.
  std::uint64_t ecmp_seed = 0x636c6f73;  // "clos"
  /// Burst delivery (DESIGN.md §11): when > 0, per-node deliveries are
  /// quantized up to the next multiple of this window and drained in one
  /// event per (node, window) — arrival order, at most kRxBurst packets per
  /// event — instead of one event per packet. Changes packet timing (each
  /// hop completes at the window boundary at or after its true arrival), so
  /// default 0 keeps unit-test timing exact; throughput benches opt in.
  common::Duration rx_burst_window = 0;
};

/// The bed's one record of its nodes, shared by every shard's Network and
/// handed to each at construction: which node, attached on which shard,
/// owns each underlay IP; each node's crash bit; the partitioned pairs.
/// Networks write it only through attach, detach, crash, heal, partition
/// and heal_partition, while no worker reads it: in setup code between
/// windows, in a fenced section, or from a loop event of a bed that one
/// worker drives. A threaded bed must not write it from a loop event.
/// attach sizes `crashed` for the node, so crashing or healing an attached
/// node never reallocates it under a reading worker.
struct NodeDirectory {
  /// IP cell. A cell is empty when its node is kInvalidNode, so every IP,
  /// 0.0.0.0 included, is an ordinary key. The probe starts from the IP
  /// through a 64-bit mixer, since a cell is picked from the hash's low
  /// bits and IPs differ in their high bits too.
  struct IpCell {
    std::uint32_t ip = 0;
    NodeId node = kInvalidNode;
    std::uint32_t shard = 0;
  };
  struct IpTraits {
    static bool empty(const IpCell& cell) { return cell.node == kInvalidNode; }
    static std::uint64_t hash(const IpCell& cell) {
      return net::flow_hash_mix64(cell.ip);
    }
  };

  common::FlatTable<IpCell, IpTraits> ips;
  std::vector<std::uint8_t> crashed;  // by NodeId
  // Partitions are rare and few; a tiny pair-key vector beats a hash set.
  std::vector<std::uint64_t> partition_pairs;
};

class Network {
 public:
  /// Max packets handed to a node per burst-drain event; a window holding
  /// more drains in several same-timestamp events that preserve arrival
  /// order (mirrors a NIC RX-burst cap).
  static constexpr std::size_t kRxBurst = 32;

  /// `directory` is the bed's one NodeDirectory; it must outlive the
  /// network, which never swaps it.
  Network(EventLoop& loop, Topology topology, NodeDirectory& directory,
          NetworkConfig config = {});

  const Topology& topology() const { return topology_; }

  /// Registers a node on this network's shard, in the directory too; the
  /// network does not take ownership.
  void attach(Node& node);
  void detach(NodeId id);

  /// A node attached to this network (not to another shard's), or null.
  Node* find_by_id(NodeId id) const {
    return id < nodes_.size() ? nodes_[id] : nullptr;
  }

  /// Sends pkt from `from` to the node owning `to_ip`. The packet first
  /// waits in the sender's egress queue (serialization at link_bps), then
  /// crosses the fabric (topology latency; on a cross-leaf Clos path, also
  /// the ECMP spine's uplink and downlink), then is delivered — unless the
  /// destination is unknown, crashed, or a queue overflows.
  void send(NodeId from, net::Ipv4Addr to_ip, net::Packet pkt);

  /// Sharded-engine hookup (DESIGN.md §13): this network serves shard
  /// `shard_id`, which attach records in the directory, so set it before
  /// attaching. A send() to a node on another shard reserves the links the
  /// sending shard owns (the sender port and, on a cross-leaf Clos path,
  /// its leaf's uplink), then exports a ShardToken to the owning shard
  /// instead of running the last leg locally.
  void set_engine(ShardedEngine* engine, std::uint32_t shard_id) {
    engine_ = engine;
    shard_id_ = shard_id;
  }

  /// Injects a token exported by another shard (engine-only; called at
  /// epoch boundaries with every worker quiescent). Runs the same last leg
  /// a local send runs: a cross-leaf Clos packet reaches the spine at
  /// tok.at and queues on the spine→leaf downlink this shard owns; any
  /// other packet is delivered at tok.at.
  void inject_token(ShardToken tok);

  /// Fault injection: a crashed node neither sends nor receives. Faults
  /// live in the directory, so any shard's network sets or reads them for
  /// any node; see NodeDirectory for who may write one, and when.
  void crash(NodeId id);
  void heal(NodeId id);
  bool crashed(NodeId id) const {
    return id < dir_.crashed.size() && dir_.crashed[id] != 0;
  }

  /// Link-level fault injection: drops all traffic between a and b (both
  /// directions) while both nodes stay healthy — the §C.1 scenario where
  /// the centralized monitor still sees an FE as alive but the FE-BE path
  /// is gone.
  void partition(NodeId a, NodeId b);
  void heal_partition(NodeId a, NodeId b);
  bool partitioned(NodeId a, NodeId b) const;
  std::uint64_t dropped_partitioned() const { return dropped_partitioned_; }

  // --- observability ---
  /// Total send() attempts; the conservation identity
  ///   sent() + imported() ==
  ///       delivered() + dropped_total() + in_flight() + exported()
  /// holds after every event (checked by core::InvariantChecker). Without
  /// a sharded engine exported/imported stay 0 and this reduces to the
  /// classic sent == delivered + dropped + in_flight.
  std::uint64_t sent() const { return sent_; }
  /// Packets handed off to another shard as tokens (cross-shard sends).
  std::uint64_t exported() const { return exported_; }
  /// Tokens received from other shards and scheduled locally.
  std::uint64_t imported() const { return imported_; }
  /// Packets scheduled into the fabric and not yet delivered or dropped.
  std::uint64_t in_flight() const { return in_flight_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }
  std::uint64_t dropped_crashed() const { return dropped_crashed_; }
  std::uint64_t dropped_queue_full() const { return dropped_queue_full_; }
  /// Clos only: tail drops on leaf↔spine fabric links.
  std::uint64_t dropped_fabric() const { return dropped_fabric_; }
  std::uint64_t dropped_total() const {
    return dropped_no_route_ + dropped_crashed_ + dropped_queue_full_ +
           dropped_partitioned_ + dropped_fabric_;
  }
  std::uint64_t total_bytes_sent() const { return total_bytes_; }
  /// Clos only: bytes carried per spine (ECMP balance observability).
  const std::vector<std::uint64_t>& spine_bytes() const { return spine_bytes_; }

  using TraceFn = std::function<void(common::TimePoint, const net::Packet&,
                                     NodeId from, NodeId to)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Telemetry hook (null = off). The hub records enqueue/deliver/drop
  /// events and stamps packet ids at the send edge.
  void set_telemetry(telemetry::Hub* hub) { telemetry_ = hub; }

  /// Egress-port backlog of node `id` now: the bytes its FIFO has yet to
  /// put on the wire. Exact for the modeled port. The port lives on the
  /// sender's shard, so read it from the Network that owns the node.
  std::size_t port_queued_bytes(NodeId id) const {
    return id < ports_.size() ? static_cast<std::size_t>(backlog(
                                    ports_[id], loop_.now(), config_.link_bps))
                              : 0;
  }
  std::size_t fabric_link_count() const { return fabric_links_.size(); }
  /// Backlog of directed fabric link i now, max(0, busy_until − now) ×
  /// rate: the bytes committed to it and not yet sent. A fabric link is
  /// reserved when the packet is sent, not when the packet reaches it, so
  /// while a packet is still travelling toward the link the gauge also
  /// counts that travel time at the link's rate. Uplinks live on the
  /// source leaf's shard, downlinks on the destination leaf's shard.
  std::size_t fabric_queued_bytes(std::size_t i) const {
    return i < fabric_links_.size()
               ? static_cast<std::size_t>(
                     backlog(fabric_links_[i], loop_.now(), fabric_link_bps_))
               : 0;
  }

 private:
  /// One direction of a link: a sender port or a Clos fabric link. The
  /// link sends back to back, so its clock is its whole state.
  struct Link {
    // Virtual time at which the last reserved byte leaves the link.
    common::TimePoint busy_until = 0;
  };

  /// What a scheduled completion does with its in-flight record.
  enum class HopKind : std::uint8_t {
    kDeliver = 0,          // hand the packet to the destination node
    kFabricDrop = 1,       // tail-dropped on a Clos fabric link
  };

  /// Pooled record for one packet between send() and its completion event.
  struct InFlight {
    net::Packet pkt;
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t bytes = 0;
    HopKind kind = HopKind::kDeliver;
  };

  /// The one FIFO hop. A packet of `bytes` reaching `link` at `at` is
  /// tail-dropped (returns false) when the backlog it finds plus itself
  /// exceeds `cap`; otherwise it queues behind that backlog, serializes at
  /// `bps`, and *done is the time its last byte leaves.
  static bool reserve(Link& link, common::TimePoint at, std::size_t bytes,
                      double bps, std::size_t cap, common::TimePoint* done);
  /// Bytes `link` still has to send at `at`: max(0, busy_until − at) × bps.
  static double backlog(const Link& link, common::TimePoint at, double bps) {
    if (link.busy_until <= at) return 0.0;
    return static_cast<double>(link.busy_until - at) * bps /
           (8.0 * static_cast<double>(common::kSecond));
  }

  bool cross_leaf(NodeId from, NodeId to) const {
    return topology_.is_clos() && !topology_.same_leaf(from, to);
  }
  /// Directed fabric link: appending leaves as higher NodeIds appear never
  /// renumbers existing links (spine count is fixed per topology), so
  /// off-grid nodes (gateway/monitor beyond the host grid) extend the table.
  Link& fabric_link(bool down, std::uint32_t leaf, std::uint32_t spine);
  /// Puts pkt in flight in a fresh slab record.
  std::uint32_t hold(net::Packet&& pkt, NodeId from, NodeId to,
                     std::uint32_t bytes, HopKind kind);
  /// The last leg, shared by a local send and an injected token: a
  /// cross-leaf Clos packet reaches `spine` at `at` and queues on the
  /// spine→leaf downlink; any other packet arrives at `at`.
  void downlink(std::uint32_t slot, std::uint32_t spine,
                common::TimePoint at);

  /// One per-node batch of deliveries sharing a quantized window timestamp.
  /// Buckets are pooled (slots vectors keep their capacity across reuse) so
  /// steady-state burst delivery allocates nothing.
  struct RxBucket {
    common::TimePoint at = 0;
    NodeId node = 0;
    std::uint32_t drained = 0;  // next index in `slots` to deliver
    std::vector<std::uint32_t> slots;
  };

  std::uint32_t alloc_slot();
  void complete(std::uint32_t slot);
  /// Schedules the completion for `slot` at `arrival`: a per-packet event
  /// (exact mode) or membership in the destination's window bucket (burst
  /// mode, rx_burst_window > 0).
  void schedule_delivery(common::TimePoint arrival, std::uint32_t slot);
  /// Completion accounting shared by both modes: frees the slot and
  /// classifies the hop. Returns true when the packet survives to delivery
  /// (moved into *pkt_out).
  bool finish_hop(std::uint32_t slot, net::Packet* pkt_out, NodeId* from_out,
                  std::uint32_t* bytes_out);
  void rx_drain(std::uint32_t bucket);
  static void rx_drain_thunk(void* self, std::uint64_t bucket) {
    static_cast<Network*>(self)->rx_drain(static_cast<std::uint32_t>(bucket));
  }
  /// The single delivery tap: every completed hop — point-to-point and Clos
  /// fast path alike — funnels through here before the destination's
  /// receive(), so pcap capture and telemetry see identical traffic.
  void deliver_tap(const net::Packet& pkt, NodeId from, NodeId to,
                   std::uint32_t bytes);
  void record_drop(const net::Packet& pkt, NodeId node, std::uint64_t peer,
                   std::uint8_t reason, std::uint32_t bytes);
  /// EventLoop raw-callback shim for the per-hop delivery events — the
  /// hottest schedule site in the simulator; avoids a std::function per hop.
  static void complete_thunk(void* self, std::uint64_t slot) {
    static_cast<Network*>(self)->complete(static_cast<std::uint32_t>(slot));
  }
  /// The directory cell holding `ip`, or null.
  const NodeDirectory::IpCell* ip_cell(std::uint32_t ip) const;

  static std::uint64_t pair_key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  EventLoop& loop_;
  Topology topology_;
  NodeDirectory& dir_;
  NetworkConfig config_;
  double fabric_link_bps_ = 0;
  std::uint32_t num_spines_ = 1;

  // Dense per-node state of the nodes attached here, indexed by NodeId
  // (ids are small and sequential).
  std::vector<Node*> nodes_;
  std::vector<Link> ports_;

  // Directed Clos fabric links, indexed (leaf * num_spines + spine) * 2 +
  // (downlink ? 1 : 0).
  std::vector<Link> fabric_links_;

  // In-flight packet slab + free list (free list capacity tracks the slab,
  // so completion-side push_back never reallocates).
  std::vector<InFlight> slab_;
  std::vector<std::uint32_t> free_slots_;

  // Burst-mode delivery buckets: a pooled bucket slab, its free list, and
  // per-node lists of active bucket ids (at most a handful per node — one
  // per distinct pending window).
  std::vector<RxBucket> rx_buckets_;
  std::vector<std::uint32_t> rx_free_;
  std::vector<std::vector<std::uint32_t>> rx_active_;

  TraceFn trace_;
  telemetry::Hub* telemetry_ = nullptr;
  ShardedEngine* engine_ = nullptr;
  std::uint32_t shard_id_ = 0;

  std::uint64_t sent_ = 0;
  std::uint64_t exported_ = 0;
  std::uint64_t imported_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t dropped_crashed_ = 0;
  std::uint64_t dropped_queue_full_ = 0;
  std::uint64_t dropped_partitioned_ = 0;
  std::uint64_t dropped_fabric_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::vector<std::uint64_t> spine_bytes_;
};

}  // namespace nezha::sim
