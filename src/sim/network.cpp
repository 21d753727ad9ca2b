#include "src/sim/network.h"

#include <algorithm>
#include <utility>

#include "src/net/five_tuple.h"
#include "src/telemetry/hub.h"

namespace nezha::sim {

namespace {
/// Connection identity for trace events: the canonical inner 5-tuple hash
/// (seed 0), identical for both directions of a flow.
std::uint64_t trace_flow(const net::Packet& pkt) {
  return net::flow_hash(pkt.inner.ft.canonical(), 0);
}
}  // namespace

Network::Network(EventLoop& loop, Topology topology, NetworkConfig config)
    : loop_(loop), topology_(topology), config_(config) {
  if (topology_.is_clos()) {
    const ClosConfig& clos = topology_.config().clos;
    num_spines_ = clos.num_spines == 0 ? 1 : clos.num_spines;
    spine_bytes_.assign(num_spines_, 0);
    if (config_.fabric_link_bps > 0) {
      fabric_link_bps_ = config_.fabric_link_bps;
    } else {
      // A leaf's host-facing capacity, divided across its uplinks and scaled
      // down by the oversubscription ratio.
      const double spines = clos.num_spines == 0 ? 1.0 : clos.num_spines;
      const double oversub =
          clos.oversubscription > 0 ? clos.oversubscription : 1.0;
      fabric_link_bps_ =
          config_.link_bps * clos.hosts_per_leaf / (spines * oversub);
    }
    fabric_links_.resize(2 * num_spines_ * clos.num_leaves);
  }
}

const Network::IpCell* Network::ip_cell(std::uint32_t ip) const {
  return ips_.find(IpTraits::hash(IpCell{ip, nullptr}),
                   [ip](const IpCell& cell) { return cell.ip == ip; });
}

Node* Network::find_by_ip(net::Ipv4Addr ip) const {
  const IpCell* cell = ip_cell(ip.value());
  return cell == nullptr ? nullptr : cell->node;
}

void Network::attach(Node& node) {
  const NodeId id = node.id();
  if (id >= nodes_.size()) {
    nodes_.resize(id + 1, nullptr);
    ports_.resize(id + 1);
    crashed_.resize(id + 1, 0);
  }
  nodes_[id] = &node;
  ports_[id] = Link{};
  // A node attached at an IP already held takes it over.
  const std::uint32_t ip = node.underlay_ip().value();
  if (const IpCell* held = ip_cell(ip)) ips_.erase(held);
  ips_.insert(IpCell{ip, &node});
}

void Network::detach(NodeId id) {
  if (id >= nodes_.size() || nodes_[id] == nullptr) return;
  const IpCell* cell = ip_cell(nodes_[id]->underlay_ip().value());
  if (cell != nullptr && cell->node == nodes_[id]) ips_.erase(cell);
  nodes_[id] = nullptr;
  ports_[id] = Link{};
  crashed_[id] = 0;
}

std::uint32_t Network::alloc_slot() {
  if (free_slots_.empty()) {
    slab_.emplace_back();
    free_slots_.reserve(slab_.capacity());
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

bool Network::finish_hop(std::uint32_t slot, net::Packet* pkt_out,
                         NodeId* from_out, std::uint32_t* bytes_out) {
  InFlight& rec = slab_[slot];
  net::Packet pkt = std::move(rec.pkt);
  const NodeId from = rec.from;
  const NodeId to = rec.to;
  const std::uint32_t bytes = rec.bytes;
  const HopKind kind = rec.kind;
  // Free before delivery: receive() may send and reuse this slot.
  free_slots_.push_back(slot);
  --in_flight_;

  if (kind == HopKind::kFabricDrop) {
    ++dropped_fabric_;
    record_drop(pkt, to, from,
                static_cast<std::uint8_t>(telemetry::DropReason::kFabric),
                bytes);
    return false;
  }
  if (crashed(to)) {
    ++dropped_crashed_;
    record_drop(pkt, to, from,
                static_cast<std::uint8_t>(telemetry::DropReason::kCrashed),
                bytes);
    return false;
  }
  if (find_by_id(to) == nullptr) {
    ++dropped_no_route_;
    record_drop(pkt, to, from,
                static_cast<std::uint8_t>(telemetry::DropReason::kNoRoute),
                bytes);
    return false;
  }
  *pkt_out = std::move(pkt);
  *from_out = from;
  *bytes_out = bytes;
  return true;
}

void Network::complete(std::uint32_t slot) {
  const NodeId to = slab_[slot].to;
  net::Packet pkt;
  NodeId from = 0;
  std::uint32_t bytes = 0;
  if (!finish_hop(slot, &pkt, &from, &bytes)) return;
  Node* node = find_by_id(to);
  ++delivered_;
  deliver_tap(pkt, from, to, bytes);
  node->receive(std::move(pkt));
}

void Network::schedule_delivery(common::TimePoint arrival,
                                std::uint32_t slot) {
  const common::Duration w = config_.rx_burst_window;
  if (w == 0) {
    loop_.schedule_raw_at(arrival, &Network::complete_thunk, this, slot);
    return;
  }
  // Quantize up: the hop completes at the first window boundary at or after
  // its true arrival. `arrival` is strictly in the future (serialization
  // time is positive), so a bucket opened here never lands at `now` — a
  // drain in progress cannot have its bucket mutated underneath it.
  const common::TimePoint at = (arrival + w - 1) / w * w;
  const NodeId to = slab_[slot].to;
  if (to >= rx_active_.size()) rx_active_.resize(to + 1);
  for (const std::uint32_t bid : rx_active_[to]) {
    if (rx_buckets_[bid].at == at) {
      rx_buckets_[bid].slots.push_back(slot);
      return;
    }
  }
  std::uint32_t bid;
  if (rx_free_.empty()) {
    bid = static_cast<std::uint32_t>(rx_buckets_.size());
    rx_buckets_.emplace_back();
  } else {
    bid = rx_free_.back();
    rx_free_.pop_back();
  }
  RxBucket& b = rx_buckets_[bid];
  b.at = at;
  b.node = to;
  b.drained = 0;
  b.slots.push_back(slot);
  rx_active_[to].push_back(bid);
  loop_.schedule_raw_at(at, &Network::rx_drain_thunk, this, bid);
}

void Network::rx_drain(std::uint32_t bucket) {
  std::uint32_t chunk[kRxBurst];
  std::size_t n = 0;
  {
    RxBucket& b = rx_buckets_[bucket];
    while (n < kRxBurst && b.drained < b.slots.size()) {
      chunk[n++] = b.slots[b.drained++];
    }
    if (b.drained < b.slots.size()) {
      // Over a burst's worth in this window: the remainder drains in
      // follow-up events at the same timestamp, preserving arrival order.
      loop_.schedule_raw_at(b.at, &Network::rx_drain_thunk, this, bucket);
    } else {
      auto& active = rx_active_[b.node];
      active.erase(std::find(active.begin(), active.end(), bucket));
      b.slots.clear();  // keeps capacity for the pooled reuse
      rx_free_.push_back(bucket);
    }
  }
  // Phase 1: completion accounting per hop; survivors form the burst. Every
  // packet in a bucket shares the destination node.
  net::Packet pkts[kRxBurst];
  NodeId froms[kRxBurst];
  std::uint32_t bytes[kRxBurst];
  NodeId to = 0;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    to = slab_[chunk[i]].to;
    if (finish_hop(chunk[i], &pkts[m], &froms[m], &bytes[m])) ++m;
  }
  if (m == 0) return;
  // Phase 2: taps + counters, then one burst handoff to the node.
  Node* node = find_by_id(to);
  for (std::size_t i = 0; i < m; ++i) {
    ++delivered_;
    deliver_tap(pkts[i], froms[i], to, bytes[i]);
  }
  node->receive_burst(pkts, m);
}

void Network::deliver_tap(const net::Packet& pkt, NodeId from, NodeId to,
                          std::uint32_t bytes) {
  if (trace_) trace_(loop_.now(), pkt, from, to);
  if (telemetry_ != nullptr) {
    telemetry::TraceEvent e;
    e.at = loop_.now();
    e.packet_id = pkt.id;
    e.flow = trace_flow(pkt);
    e.a = from;
    e.b = bytes;
    e.node = to;
    e.kind = telemetry::EventKind::kPktDeliver;
    telemetry_->record(e);
  }
}

void Network::record_drop(const net::Packet& pkt, NodeId node,
                          std::uint64_t peer, std::uint8_t reason,
                          std::uint32_t bytes) {
  if (telemetry_ == nullptr) return;
  telemetry::TraceEvent e;
  e.at = loop_.now();
  e.packet_id = pkt.id;
  e.flow = trace_flow(pkt);
  e.a = peer;
  e.b = bytes;
  e.node = node;
  e.kind = telemetry::EventKind::kPktDrop;
  e.detail = reason;
  telemetry_->record(e);
}

bool Network::reserve(Link& link, common::TimePoint at, std::size_t bytes,
                      double bps, std::size_t cap, common::TimePoint* done) {
  if (link.busy_until < at) link.busy_until = at;
  if (backlog(link, at, bps) + static_cast<double>(bytes) >
      static_cast<double>(cap)) {
    return false;
  }
  link.busy_until += static_cast<common::Duration>(
      static_cast<double>(bytes) * 8.0 / bps *
      static_cast<double>(common::kSecond));
  *done = link.busy_until;
  return true;
}

Network::Link& Network::fabric_link(bool down, std::uint32_t leaf,
                                    std::uint32_t spine) {
  const std::size_t i = (leaf * num_spines_ + spine) * 2 + (down ? 1 : 0);
  if (i >= fabric_links_.size()) fabric_links_.resize(i + 1);
  return fabric_links_[i];
}

std::uint32_t Network::hold(net::Packet&& pkt, NodeId from, NodeId to,
                            std::uint32_t bytes, HopKind kind) {
  ++in_flight_;
  const std::uint32_t slot = alloc_slot();
  InFlight& rec = slab_[slot];
  rec.pkt = std::move(pkt);
  rec.from = from;
  rec.to = to;
  rec.bytes = bytes;
  rec.kind = kind;
  return slot;
}

void Network::send(NodeId from, net::Ipv4Addr to_ip, net::Packet pkt) {
  ++sent_;
  if (telemetry_ != nullptr) telemetry_->stamp(pkt);
  if (crashed(from)) {
    ++dropped_crashed_;
    record_drop(pkt, from, to_ip.value(),
                static_cast<std::uint8_t>(telemetry::DropReason::kCrashed),
                static_cast<std::uint32_t>(pkt.wire_size()));
    return;
  }
  // Resolve the destination: attached here, or owned by another shard.
  NodeId to = 0;
  std::uint32_t to_shard = shard_id_;
  if (const Node* dst = find_by_ip(to_ip)) {
    to = dst->id();
  } else {
    const ShardedEngine::Remote* rem =
        engine_ != nullptr ? engine_->lookup_remote(to_ip) : nullptr;
    if (rem == nullptr || rem->shard == shard_id_) {
      ++dropped_no_route_;
      record_drop(pkt, from, to_ip.value(),
                  static_cast<std::uint8_t>(telemetry::DropReason::kNoRoute),
                  static_cast<std::uint32_t>(pkt.wire_size()));
      return;
    }
    to = rem->node;
    to_shard = rem->shard;
  }
  if (partitioned(from, to)) {
    ++dropped_partitioned_;
    record_drop(pkt, from, to,
                static_cast<std::uint8_t>(telemetry::DropReason::kPartitioned),
                static_cast<std::uint32_t>(pkt.wire_size()));
    return;
  }
  const auto bytes = static_cast<std::uint32_t>(pkt.wire_size());

  // Sender port. Off-shard control senders (e.g. the link prober speaking
  // for a remote BE) may carry ids beyond the locally attached range; grow
  // the port table for them.
  if (from >= ports_.size()) ports_.resize(from + 1);
  common::TimePoint tx_done = 0;
  if (!reserve(ports_[from], loop_.now(), bytes, config_.link_bps,
               config_.egress_queue_bytes, &tx_done)) {
    ++dropped_queue_full_;
    record_drop(pkt, from, to,
                static_cast<std::uint8_t>(telemetry::DropReason::kQueueFull),
                bytes);
    return;
  }
  total_bytes_ += bytes;
  if (telemetry_ != nullptr) {
    telemetry::TraceEvent e;
    e.at = loop_.now();
    e.packet_id = pkt.id;
    e.flow = trace_flow(pkt);
    e.a = to;
    e.b = bytes;
    e.node = from;
    e.kind = telemetry::EventKind::kPktEnqueue;
    telemetry_->record(e);
  }

  // `at` becomes the spine arrival on a cross-leaf Clos path and the final
  // arrival on every other path.
  common::TimePoint at = 0;
  std::uint32_t spine = 0;
  if (cross_leaf(from, to)) {
    // ECMP on the canonical inner 5-tuple: both directions of a flow, and
    // both runs of a seeded experiment, ride the same spine.
    spine = topology_.ecmp_spine(
        from, to, net::flow_hash(pkt.inner.ft.canonical(), config_.ecmp_seed));
    // Leaf→spine uplink. Shards are rack-aligned, so the sender's shard
    // owns its leaf's uplinks.
    const common::TimePoint at_leaf = tx_done + kHostLeafLatency;
    common::TimePoint up_done = 0;
    if (!reserve(fabric_link(false, topology_.leaf_of(from), spine), at_leaf,
                 bytes, fabric_link_bps_, config_.fabric_queue_bytes,
                 &up_done)) {
      schedule_delivery(at_leaf, hold(std::move(pkt), from, to, bytes,
                                      HopKind::kFabricDrop));
      return;
    }
    at = up_done + kLeafSpineLatency;
  } else {
    at = tx_done + topology_.latency(from, to);
  }

  if (to_shard != shard_id_) {
    ShardToken tok;
    tok.pkt = std::move(pkt);
    tok.at = at;
    tok.from = from;
    tok.to = to;
    tok.bytes = bytes;
    tok.spine = spine;
    ++exported_;
    engine_->export_token(shard_id_, to_shard, std::move(tok));
    return;
  }
  downlink(hold(std::move(pkt), from, to, bytes, HopKind::kDeliver), spine,
           at);
}

void Network::inject_token(ShardToken tok) {
  ++imported_;
  downlink(hold(std::move(tok.pkt), tok.from, tok.to, tok.bytes,
                HopKind::kDeliver),
           tok.spine, tok.at);
}

void Network::downlink(std::uint32_t slot, std::uint32_t spine,
                       common::TimePoint at) {
  InFlight& rec = slab_[slot];
  if (!cross_leaf(rec.from, rec.to)) {
    schedule_delivery(at, slot);
    return;
  }
  // Spine→leaf downlink, owned by the destination leaf's shard.
  common::TimePoint down_done = 0;
  if (!reserve(fabric_link(true, topology_.leaf_of(rec.to), spine), at,
               rec.bytes, fabric_link_bps_, config_.fabric_queue_bytes,
               &down_done)) {
    rec.kind = HopKind::kFabricDrop;
    schedule_delivery(at, slot);
    return;
  }
  spine_bytes_[spine] += rec.bytes;
  schedule_delivery(down_done + kLeafSpineLatency + kHostLeafLatency, slot);
}

void Network::crash(NodeId id) {
  if (id >= crashed_.size()) crashed_.resize(id + 1, 0);
  crashed_[id] = 1;
}

void Network::heal(NodeId id) {
  if (id < crashed_.size()) crashed_[id] = 0;
}

void Network::partition(NodeId a, NodeId b) {
  const std::uint64_t key = pair_key(a, b);
  if (std::find(partition_pairs_.begin(), partition_pairs_.end(), key) ==
      partition_pairs_.end()) {
    partition_pairs_.push_back(key);
  }
}

void Network::heal_partition(NodeId a, NodeId b) {
  const std::uint64_t key = pair_key(a, b);
  partition_pairs_.erase(
      std::remove(partition_pairs_.begin(), partition_pairs_.end(), key),
      partition_pairs_.end());
}

bool Network::partitioned(NodeId a, NodeId b) const {
  if (partition_pairs_.empty()) return false;
  return std::find(partition_pairs_.begin(), partition_pairs_.end(),
                   pair_key(a, b)) != partition_pairs_.end();
}

}  // namespace nezha::sim
