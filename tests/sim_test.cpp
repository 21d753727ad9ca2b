// Unit tests for the discrete-event simulator: event loop ordering and
// cancellation, topology tiers and rack arithmetic, network
// delivery/latency/faults, and the FIFO tail-drop arithmetic of ports and
// Clos fabric links.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/node.h"
#include "src/sim/topology.h"

namespace nezha::sim {
namespace {

using common::microseconds;
using common::milliseconds;
using common::TimePoint;

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, EqualTimesFireInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.schedule_at(10, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, RunUntilAdvancesTime) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(100, [&] { ++count; });
  loop.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), 50);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventsScheduledWhileRunningFire) {
  EventLoop loop;
  int depth = 0;
  loop.schedule_at(1, [&] {
    ++depth;
    loop.schedule_after(1, [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.now(), 2);
}

TEST(EventLoopTest, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.run_until(100);
  TimePoint fired_at = -1;
  loop.schedule_at(5, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

// Regression: a cancelled event at the queue head with at <= t used to make
// run_until(t) fire the *next* live event even when its timestamp was > t.
TEST(EventLoopTest, RunUntilDoesNotOvershootPastCancelledHead) {
  EventLoop loop;
  bool late_fired = false;
  EventId head = loop.schedule_at(10, [] {});
  loop.schedule_at(100, [&] { late_fired = true; });
  loop.cancel(head);
  loop.run_until(50);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(loop.now(), 50);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(late_fired);
  EXPECT_EQ(loop.now(), 100);
}

// Regression: cancel-after-fire used to leave a permanent tombstone that made
// pending() = queue.size() - cancelled.size() underflow in size_t.
TEST(EventLoopTest, CancelAfterFireIsANoOp) {
  EventLoop loop;
  int fired = 0;
  EventId id = loop.schedule_at(10, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 0u);
  loop.cancel(id);  // already fired: must not poison accounting
  EXPECT_EQ(loop.pending(), 0u);
  loop.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending(), 0u);
}

// The raw fast path must interleave with std::function events in exact
// (at, seq) order and honor cancel() identically.
TEST(EventLoopTest, RawEventsOrderWithCallbacks) {
  EventLoop loop;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
  } ctx{&order};
  const auto raw = [](void* c, std::uint64_t arg) {
    static_cast<Ctx*>(c)->order->push_back(static_cast<int>(arg));
  };
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_raw_at(10, raw, &ctx, 2);  // same time: schedule order wins
  loop.schedule_raw_at(5, raw, &ctx, 0);
  loop.schedule_at(20, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoopTest, RawEventCancelAndSlotReuse) {
  EventLoop loop;
  int fired = 0;
  struct Ctx {
    int* fired;
  } ctx{&fired};
  const auto raw = [](void* c, std::uint64_t arg) {
    *static_cast<Ctx*>(c)->fired += static_cast<int>(arg);
  };
  EventId id = loop.schedule_raw_at(10, raw, &ctx, 100);
  loop.cancel(id);
  loop.cancel(id);  // double-cancel is a no-op
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(fired, 0);
  // The freed slot must not resurrect the raw pointer for a std::function
  // event that reuses it.
  bool cb_fired = false;
  loop.schedule_at(20, [&] { cb_fired = true; });
  loop.run();
  EXPECT_TRUE(cb_fired);
  EXPECT_EQ(fired, 0);
}

TEST(EventLoopTest, RawEventReschedulesFromCallee) {
  EventLoop loop;
  struct Ctx {
    EventLoop* loop;
    int count = 0;
    static void tick(void* self, std::uint64_t remaining) {
      auto* c = static_cast<Ctx*>(self);
      ++c->count;
      if (remaining > 0) {
        c->loop->schedule_raw_at(c->loop->now() + 5, &Ctx::tick, self,
                                 remaining - 1);
      }
    }
  } ctx{&loop};
  loop.schedule_raw_at(0, &Ctx::tick, &ctx, 9);
  loop.run();
  EXPECT_EQ(ctx.count, 10);
  EXPECT_EQ(loop.now(), 45);
}

TEST(EventLoopTest, DoubleCancelCountsOnce) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.schedule_at(10, [&] { fired = true; });
  loop.schedule_at(20, [] {});
  loop.cancel(id);
  loop.cancel(id);  // second cancel must not decrement pending again
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(loop.pending(), 0u);
}

// A fired/cancelled id must never alias a later event that reuses its slot.
TEST(EventLoopTest, StaleIdDoesNotCancelRecycledSlot) {
  EventLoop loop;
  EventId first = loop.schedule_at(10, [] {});
  loop.run();
  bool fired = false;
  loop.schedule_at(20, [&] { fired = true; });  // recycles first's slot
  loop.cancel(first);                           // stale generation: no-op
  loop.run();
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, PeriodicFiresAtFixedCadenceUntilCancelled) {
  EventLoop loop;
  std::vector<TimePoint> fires;
  EventId id = loop.schedule_periodic(10, [&] { fires.push_back(loop.now()); });
  EXPECT_EQ(loop.pending(), 1u);  // a series counts as one pending event
  loop.run_until(35);
  EXPECT_EQ(fires, (std::vector<TimePoint>{10, 20, 30}));
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.run();
  EXPECT_EQ(fires.size(), 3u);
}

TEST(EventLoopTest, PeriodicCanCancelItselfFromCallback) {
  EventLoop loop;
  int fires = 0;
  EventId id = 0;
  id = loop.schedule_periodic(5, [&] {
    if (++fires == 3) loop.cancel(id);
  });
  loop.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(loop.now(), 15);
  EXPECT_EQ(loop.pending(), 0u);
}

// The next periodic tick is sequenced after events its own callback
// scheduled at the same timestamp — matching the legacy self-rescheduling
// pattern, so converted call sites keep identical event order.
TEST(EventLoopTest, PeriodicTickOrdersAfterCallbackScheduledEvents) {
  EventLoop loop;
  std::vector<int> order;
  EventId id = 0;
  int ticks = 0;
  id = loop.schedule_periodic(10, [&] {
    order.push_back(1);
    loop.schedule_after(10, [&] { order.push_back(2); });
    if (++ticks == 2) loop.cancel(id);
  });
  loop.run();
  // t=10: tick. t=20: tick fired events interleave — the callback-scheduled
  // event (seq minted first) precedes the second tick.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(TopologyTest, TierClassification) {
  Topology topo(TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2});
  EXPECT_EQ(topo.hop_tier(0, 0), 0);
  EXPECT_EQ(topo.hop_tier(0, 3), 1);   // same ToR
  EXPECT_EQ(topo.hop_tier(0, 4), 2);   // same agg, different ToR
  EXPECT_EQ(topo.hop_tier(0, 8), 3);   // different agg
  EXPECT_TRUE(topo.same_tor(1, 2));
  EXPECT_FALSE(topo.same_tor(3, 4));
  EXPECT_TRUE(topo.same_agg(0, 7));
  EXPECT_FALSE(topo.same_agg(0, 8));
}

TEST(TopologyTest, LatencyIncreasesWithTier) {
  Topology topo(TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2});
  EXPECT_LT(topo.latency(0, 0), topo.latency(0, 1));
  EXPECT_LT(topo.latency(0, 1), topo.latency(0, 4));
  EXPECT_LT(topo.latency(0, 4), topo.latency(0, 8));
}

// Racks and blocks are reciprocal multiplies, not divisions: for every
// divisor 1-4,096 and random 32-bit ids (plus the ids around multiples of
// the divisor and the largest id), tor_of/leaf_of/agg_of equal `/` in both
// fabrics. Divisor 1 is its own case: its reciprocal 2^64 does not fit in
// 64 bits.
TEST(TopologyTest, ReciprocalRacksMatchDivision) {
  common::Rng rng(41);
  std::size_t mismatches = 0;
  for (std::uint32_t d = 1; d <= 4096; ++d) {
    const auto block = static_cast<std::uint32_t>(rng.uniform_u64(1, 4096));
    TopologyConfig tiered_config;
    tiered_config.servers_per_tor = d;
    tiered_config.tors_per_agg = block;
    const Topology tiered(tiered_config);
    TopologyConfig clos_config;
    clos_config.kind = FabricKind::kClos;
    clos_config.clos.hosts_per_leaf = d;
    const Topology clos(clos_config);
    std::vector<NodeId> ids{0, d - 1, d, 0xffffffffu,
                            0xffffffffu / d * d, 0xffffffffu / d * d - 1};
    for (int i = 0; i < 64; ++i) {
      ids.push_back(static_cast<NodeId>(rng.next()));
    }
    for (const NodeId id : ids) {
      mismatches += tiered.tor_of(id) != id / d;
      mismatches += tiered.agg_of(id) != id / d / block;
      mismatches += clos.leaf_of(id) != id / d;
      mismatches += clos.agg_of(id) != 0;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  TopologyConfig one;
  one.servers_per_tor = 1;
  one.tors_per_agg = 1;
  const Topology unit(one);
  for (const NodeId id : {0u, 1u, 0x80000000u, 0xfffffffeu, 0xffffffffu}) {
    EXPECT_EQ(unit.tor_of(id), id);
    EXPECT_EQ(unit.agg_of(id), id);
  }
}

/// Minimal sink node recording arrivals.
class SinkNode : public Node {
 public:
  SinkNode(NodeId id, net::Ipv4Addr ip)
      : Node(id, ip, net::MacAddr(id + 1)) {}
  void receive(net::Packet pkt) override {
    received.push_back(std::move(pkt));
  }
  std::vector<net::Packet> received;
};

net::Packet test_packet(std::uint16_t payload = 100) {
  net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                    1000, 80, net::IpProto::kUdp};
  return net::make_udp_packet(ft, payload);
}

struct NetworkFixture {
  EventLoop loop;
  Topology topo{TopologyConfig{.servers_per_tor = 4, .tors_per_agg = 2}};
  NodeDirectory dir;
  Network net{loop, topo, dir};
  SinkNode a{0, net::Ipv4Addr(172, 16, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(172, 16, 0, 2)};
  SinkNode far{8, net::Ipv4Addr(172, 16, 0, 9)};

  NetworkFixture() {
    net.attach(a);
    net.attach(b);
    net.attach(far);
  }
};

TEST(NetworkTest, DeliversToDestination) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 1u);
  EXPECT_EQ(f.net.delivered(), 1u);
}

TEST(NetworkTest, LatencyMatchesTopologyPlusSerialization) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  // same-ToR latency 5us + serialization of a small packet at 100G (~10ns).
  EXPECT_GE(f.loop.now(), microseconds(5));
  EXPECT_LT(f.loop.now(), microseconds(6));
}

TEST(NetworkTest, FartherNodesTakeLonger) {
  NetworkFixture f;
  TimePoint near_arrival = 0, far_arrival = 0;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  near_arrival = f.loop.now();
  f.net.send(f.a.id(), f.far.underlay_ip(), test_packet());
  f.loop.run();
  far_arrival = f.loop.now() - near_arrival;
  EXPECT_GT(far_arrival, near_arrival);
}

TEST(NetworkTest, UnknownDestinationDropped) {
  NetworkFixture f;
  f.net.send(f.a.id(), net::Ipv4Addr(9, 9, 9, 9), test_packet());
  f.loop.run();
  EXPECT_EQ(f.net.dropped_no_route(), 1u);
  EXPECT_EQ(f.net.delivered(), 0u);
}

TEST(NetworkTest, CrashedNodeDropsTraffic) {
  NetworkFixture f;
  f.net.crash(f.b.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
  EXPECT_EQ(f.net.dropped_crashed(), 1u);

  f.net.heal(f.b.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 1u);
}

TEST(NetworkTest, CrashedSenderCannotSend) {
  NetworkFixture f;
  f.net.crash(f.a.id());
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
}

TEST(NetworkTest, InFlightPacketLostWhenDestinationCrashesMidFlight) {
  NetworkFixture f;
  f.net.send(f.a.id(), f.b.underlay_ip(), test_packet());
  f.net.crash(f.b.id());  // crash before delivery event fires
  f.loop.run();
  EXPECT_EQ(f.b.received.size(), 0u);
  EXPECT_EQ(f.net.dropped_crashed(), 1u);
}

TEST(NetworkTest, SerializationDelayAccumulatesAtPort) {
  // Two large back-to-back packets from one port: second arrives one full
  // serialization time after the first.
  EventLoop loop;
  Topology topo;
  NodeDirectory dir;
  Network net(loop, topo, dir, NetworkConfig{.link_bps = 1e9});  // 1 Gbps
  SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(1, 0, 0, 2)};
  net.attach(a);
  net.attach(b);
  std::vector<TimePoint> arrivals;
  net.set_trace([&](TimePoint t, const net::Packet&, NodeId, NodeId) {
    arrivals.push_back(t);
  });
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // ~1242B at 1Gbps ≈ 9.9us between the two arrivals.
  const auto gap = arrivals[1] - arrivals[0];
  EXPECT_GT(gap, microseconds(9));
  EXPECT_LT(gap, microseconds(11));
}

TEST(NetworkTest, EgressQueueOverflowTailDrops) {
  // A 1 Mb/s port with a 3000 B queue. A 1242 B packet serializes in
  // 9.936 ms, so the port drains 125 B per ms, and the backlog a packet
  // finds is exactly the bytes still ahead of it on the wire.
  EventLoop loop;
  Topology topo;
  NodeDirectory dir;
  Network net(loop, topo, dir,
              NetworkConfig{.link_bps = 1e6, .egress_queue_bytes = 3000});
  SinkNode a{0, net::Ipv4Addr(1, 0, 0, 1)};
  SinkNode b{1, net::Ipv4Addr(1, 0, 0, 2)};
  net.attach(a);
  net.attach(b);
  std::vector<TimePoint> arrivals;
  net.set_trace([&](TimePoint t, const net::Packet&, NodeId, NodeId) {
    arrivals.push_back(t);
  });
  // Ten at t=0: two fit (1242 and 2484 B), eight are dropped.
  for (int i = 0; i < 10; ++i) {
    net.send(a.id(), b.underlay_ip(), test_packet(1200));
  }
  EXPECT_EQ(net.dropped_queue_full(), 8u);
  EXPECT_EQ(net.port_queued_bytes(a.id()), 2484u);

  // At 5 ms, 14.872 ms of work is left: 1859 B + 1242 B > 3000 B.
  loop.run_until(milliseconds(5));
  EXPECT_EQ(net.port_queued_bytes(a.id()), 1859u);
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  EXPECT_EQ(net.dropped_queue_full(), 9u);

  // At 9 ms the first packet is still on its way to b, but its bytes have
  // left the port: 1359 B + 1242 B fits, leaving 2601 B queued.
  loop.run_until(milliseconds(9));
  EXPECT_EQ(net.port_queued_bytes(a.id()), 1359u);
  net.send(a.id(), b.underlay_ip(), test_packet(1200));
  EXPECT_EQ(net.dropped_queue_full(), 9u);
  EXPECT_EQ(net.port_queued_bytes(a.id()), 2601u);

  loop.run();
  // Serialization end plus the 5 us same-ToR hop.
  EXPECT_EQ(arrivals, (std::vector<TimePoint>{microseconds(9941),
                                               microseconds(19877),
                                               microseconds(29813)}));
  EXPECT_EQ(b.received.size(), 3u);
  EXPECT_EQ(net.port_queued_bytes(a.id()), 0u);
}

/// Three leaves of two hosts under one spine. A 1250 B packet takes 1 us on
/// a 10 Gb/s host port and 10 us on a 1 Gb/s fabric link, so a fabric
/// link drains 125 B per us; each fabric queue holds 3000 B. A cross-leaf
/// packet pays 2 us host→leaf and 8 us leaf→spine on each side.
struct ClosFixture {
  static TopologyConfig topology() {
    TopologyConfig c;
    c.kind = FabricKind::kClos;
    c.clos.num_leaves = 3;
    c.clos.hosts_per_leaf = 2;
    c.clos.num_spines = 1;
    return c;
  }
  // Directed fabric link index: (leaf * spines + spine) * 2 + downlink.
  static constexpr std::size_t uplink(std::size_t leaf) { return leaf * 2; }
  static constexpr std::size_t downlink(std::size_t leaf) {
    return leaf * 2 + 1;
  }

  EventLoop loop;
  NodeDirectory dir;
  Network net{loop, Topology(topology()), dir,
              NetworkConfig{.link_bps = 1e10,
                            .fabric_link_bps = 1e9,
                            .fabric_queue_bytes = 3000}};
  std::vector<std::unique_ptr<SinkNode>> hosts;
  std::vector<std::pair<NodeId, TimePoint>> arrivals;

  ClosFixture() {
    for (NodeId id = 0; id < 6; ++id) {
      hosts.push_back(std::make_unique<SinkNode>(
          id, net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(id + 1))));
      net.attach(*hosts.back());
    }
    net.set_trace([this](TimePoint t, const net::Packet&, NodeId, NodeId to) {
      arrivals.emplace_back(to, t);
    });
  }
  void send(NodeId from, NodeId to) {
    net.send(from, hosts[to]->underlay_ip(), test_packet(1208));
  }
};

TEST(NetworkTest, FabricUplinkBurstTailDrops) {
  ClosFixture f;
  ASSERT_EQ(test_packet(1208).wire_size(), 1250u);
  // Five packets leave host 0's port at 1..5 us and reach the leaf at
  // 3..7 us. The uplink takes the first (idle) and the second (finds
  // 1125 B); the last three find 2250, 2125 and 2000 B and are dropped.
  for (int i = 0; i < 5; ++i) f.send(0, 2);
  f.loop.run_until(microseconds(10));
  EXPECT_EQ(f.net.dropped_fabric(), 3u);
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::uplink(0)), 1625u);

  // At 12 us a sixth packet reaches the leaf at 15 us, finds 1000 B and
  // queues, leaving the uplink busy until 33 us.
  f.loop.run_until(microseconds(12));
  f.send(0, 2);
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::uplink(0)), 2625u);
  f.loop.run();
  // Spine arrivals at 21, 31 and 41 us; each downlink hop ends 10 us later
  // and the last 10 us are spine→leaf→host.
  EXPECT_EQ(f.arrivals,
            (std::vector<std::pair<NodeId, TimePoint>>{
                {2, microseconds(41)}, {2, microseconds(51)},
                {2, microseconds(61)}}));
  EXPECT_EQ(f.net.dropped_fabric(), 3u);
  EXPECT_EQ(f.net.dropped_queue_full(), 0u);
  EXPECT_EQ(f.net.spine_bytes()[0], 3u * 1250u);
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::uplink(0)), 0u);
}

TEST(NetworkTest, FabricDownlinkConvergenceTailDrops) {
  ClosFixture f;
  // Hosts 0 (leaf 0) and 2 (leaf 1) each send two packets to leaf 2. Each
  // uplink passes both (spine arrivals at 21 and 31 us), and the shared
  // spine→leaf-2 downlink sees them in send order: idle, then 1250 B,
  // then 1250 B, then 2500 B — the fourth is dropped.
  f.send(0, 4);
  f.send(2, 5);
  f.send(0, 4);
  f.send(2, 5);
  f.loop.run_until(microseconds(35));
  EXPECT_EQ(f.net.dropped_fabric(), 1u);
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::downlink(2)), 2000u);
  f.loop.run_until(microseconds(45));
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::downlink(2)), 750u);
  f.loop.run();
  EXPECT_EQ(f.arrivals,
            (std::vector<std::pair<NodeId, TimePoint>>{
                {4, microseconds(41)}, {5, microseconds(51)},
                {4, microseconds(61)}}));
  EXPECT_EQ(f.net.dropped_fabric(), 1u);
  EXPECT_EQ(f.net.spine_bytes()[0], 3u * 1250u);
  EXPECT_EQ(f.net.fabric_queued_bytes(ClosFixture::downlink(2)), 0u);
}

TEST(NetworkTest, DetachRemovesRouting) {
  NetworkFixture f;
  f.net.detach(f.b.id());
  f.net.send(f.a.id(), net::Ipv4Addr(172, 16, 0, 2), test_packet());
  f.loop.run();
  EXPECT_EQ(f.net.dropped_no_route(), 1u);
}

// 0.0.0.0 is an ordinary key of the IP table: a node there receives, and
// once detached its IP routes nowhere.
TEST(NetworkTest, NodeAtUnderlayIpZeroIsRoutable) {
  NetworkFixture f;
  SinkNode zero{2, net::Ipv4Addr(0)};
  f.net.attach(zero);
  f.net.send(f.a.id(), net::Ipv4Addr(0), test_packet());
  f.loop.run();
  EXPECT_EQ(zero.received.size(), 1u);
  EXPECT_EQ(f.net.dropped_no_route(), 0u);

  f.net.detach(zero.id());
  f.net.send(f.a.id(), net::Ipv4Addr(0), test_packet());
  f.loop.run();
  EXPECT_EQ(zero.received.size(), 1u);
  EXPECT_EQ(f.net.dropped_no_route(), 1u);
}

}  // namespace
}  // namespace nezha::sim
