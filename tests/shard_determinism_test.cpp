// Sharded-engine determinism and conservation guarantees (DESIGN.md §13).
//
// The parallel engine's contract: a sharded run's outcome is a pure
// function of (config, seed, shard_count) — independent of the number of
// worker threads and of wall-clock interleaving — and the packet
// conservation identity extends across shard boundaries (every exported
// token is imported exactly once or still pending in an outbox). These tests
// pin that contract on a fleet-scale Clos scenario whose offloaded BE↔FE
// traffic genuinely crosses shards:
//  * shards=1 is exactly the legacy single-loop testbed (same fingerprint
//    as a default-config run — the golden-fingerprint gates in CI cover
//    the pinned burst/exact constants on this same path);
//  * N-shard runs reproduce bit-for-bit across repeated runs;
//  * N-shard runs are identical at 1 and 2 worker threads;
//  * the invariant harness (including the cross-shard identity) stays
//    green throughout a threaded run;
//  * moving a destination to another shard changes no link outcome, and
//    the controller reads each port's backlog on the shard that owns it;
//  * a FleetScenario places the same endpoints at every shard count and no
//    pair stalls, and CpsWorkloads may share a vSwitch or span shards;
//  * a 600-token burst between one shard pair, pushed from setup code, a
//    fenced section or a loop event, drains in one epoch in send order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"
#include "src/sim/shard.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

constexpr std::size_t kVSwitches = 64;
constexpr std::size_t kPairs = 8;

struct ShardRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t exported = 0;
  std::uint64_t imported = 0;
  std::uint64_t tokens_pending = 0;
  std::uint64_t late_tokens = 0;
  std::uint64_t epochs = 0;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::string report;
};

/// Clos fleet scenario with every server vNIC offloaded, driven in slices
/// with quiescent invariant checks between them. `shards == 1` builds the
/// engine-less testbed; otherwise the whole run, offload workflows
/// included, executes on `threads` workers.
ShardRun run_sharded(std::size_t shards, int threads, std::uint64_t seed) {
  // 4-host racks: the min-4-FE pools cannot fit beside their BE in one
  // rack, so offload traffic is forced across leaves — and across shards.
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      kVSwitches, /*hosts_per_leaf=*/4, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.shards = shards;
  cfg.threads = threads;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 400.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  scenario.offload_all();
  bed.run_for(common::seconds(1));  // offload workflows settle
  checker.check();

  scenario.start_traffic();
  for (int slice = 0; slice < 6; ++slice) {
    bed.run_for(common::milliseconds(250));
    checker.check();  // all shards quiescent between run_for() calls
  }
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(250));
  checker.check();

  ShardRun r;
  r.fingerprint = scenario.fingerprint();
  for (const auto& wl : scenario.workloads()) {
    r.attempted += wl->attempted();
    r.completed += wl->completed();
  }
  const core::Testbed::NetTotals t = bed.net_totals();
  r.exported = t.exported;
  r.imported = t.imported;
  if (bed.engine() != nullptr) {
    r.tokens_pending = bed.engine()->tokens_pending();
    r.late_tokens = bed.engine()->late_tokens();
    r.epochs = bed.engine()->epochs_run();
  }
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

TEST(ShardDeterminism, OneShardIsExactlyTheLegacyTestbed) {
  // shards=1 must not construct an engine at all, and must reproduce a
  // default-config (pre-shard) run bit-for-bit: same objects, same path.
  const ShardRun legacy = run_sharded(1, 1, 7);
  const ShardRun one = run_sharded(1, 4, 7);  // threads ignored w/o engine
  EXPECT_EQ(one.fingerprint, legacy.fingerprint)
      << "a 1-shard testbed diverged from the classic single-loop path";
  EXPECT_EQ(one.exported, 0u);
  EXPECT_EQ(one.imported, 0u);
  EXPECT_EQ(one.epochs, 0u);
  EXPECT_EQ(legacy.violations, 0u) << legacy.report;
  EXPECT_GT(legacy.completed, 100u);
  EXPECT_EQ(legacy.stalled_pairs, 0u);
}

TEST(ShardDeterminism, ShardedRunsReproduceBitForBit) {
  const ShardRun a = run_sharded(4, 1, 7);
  const ShardRun b = run_sharded(4, 1, 7);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "same (config, seed, shard_count) runs diverged";
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.exported, b.exported);
  EXPECT_EQ(a.violations, 0u) << a.report;
  EXPECT_GT(a.completed, 100u);
  EXPECT_EQ(a.stalled_pairs, 0u) << "a pair completed no connection";
  // The offloaded BE↔FE legs must actually cross shard boundaries, or this
  // suite is vacuous.
  EXPECT_GT(a.exported, 0u) << "no cross-shard traffic was exercised";
}

TEST(ShardDeterminism, ThreadCountDoesNotChangeTheOutcome) {
  const ShardRun t1 = run_sharded(4, 1, 7);
  const ShardRun t2 = run_sharded(4, 2, 7);
  EXPECT_EQ(t2.fingerprint, t1.fingerprint)
      << "worker-thread count leaked into the simulation outcome";
  EXPECT_EQ(t2.attempted, t1.attempted);
  EXPECT_EQ(t2.completed, t1.completed);
  EXPECT_EQ(t2.exported, t1.exported);
  EXPECT_EQ(t2.imported, t1.imported);
  EXPECT_EQ(t2.violations, 0u) << t2.report;
  EXPECT_EQ(t1.stalled_pairs, 0u);
  EXPECT_EQ(t2.stalled_pairs, 0u);
}

TEST(ShardDeterminism, CrossShardConservationHolds) {
  const ShardRun r = run_sharded(4, 2, 11);
  EXPECT_EQ(r.violations, 0u) << r.report;  // incl. per-shard identities
  EXPECT_GT(r.exported, 0u);
  EXPECT_EQ(r.exported, r.imported + r.tokens_pending)
      << "a token was lost or duplicated across a shard boundary";
  EXPECT_EQ(r.late_tokens, 0u)
      << "conservative lookahead violated: the epoch exceeds the minimum "
         "cross-shard latency";
  EXPECT_GT(r.epochs, 0u);
  EXPECT_EQ(r.stalled_pairs, 0u);
}

TEST(ShardDeterminism, DifferentSeedsDiverge) {
  const ShardRun a = run_sharded(4, 2, 7);
  const ShardRun b = run_sharded(4, 2, 8);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// ---------------------------------------------------------------------------
// Threaded control plane (DESIGN.md §15): full churn — a mid-window offload
// push, an FE crash detected by the health monitor, and a fleet-wide hash
// reseed — runs end-to-end at any thread count through the fence protocol,
// bit-identical to threads=1.

struct ChurnRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::uint64_t exported = 0;
  std::uint64_t late_tokens = 0;
  std::uint64_t failovers = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t fences_run = 0;
  sim::NodeId crashed_fe = 0;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::string report;
};

ChurnRun run_churn(std::size_t shards, int threads, std::uint64_t seed,
                   bool fast_forward = true) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      kVSwitches, /*hosts_per_leaf=*/4, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  // Fast monitor so the crash is declared well inside the window.
  cfg.monitor.probe_interval = common::milliseconds(100);
  cfg.monitor.probe_timeout = common::milliseconds(50);
  cfg.monitor.miss_threshold = 2;
  cfg.shards = shards;
  cfg.threads = threads;  // threaded from construction: no 1-thread phases
  cfg.shard_fast_forward = fast_forward;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 400.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  // Hold a quarter of the servers back so the churn's offload push has
  // real work; the initial workflows run under worker threads too.
  scenario.offload_all(/*holdback=*/kPairs / 4);
  bed.run_for(common::seconds(1));
  checker.check();

  scenario.start_traffic();
  scenario.schedule_churn(common::milliseconds(100),
                          common::milliseconds(250),
                          common::milliseconds(600));
  for (int slice = 0; slice < 6; ++slice) {
    bed.run_for(common::milliseconds(250));
    checker.check();
  }
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(500));
  checker.check();

  ChurnRun r;
  r.fingerprint = scenario.fingerprint();
  for (const auto& wl : scenario.workloads()) r.completed += wl->completed();
  r.exported = bed.net_totals().exported;
  if (bed.engine() != nullptr) {
    r.late_tokens = bed.engine()->late_tokens();
    r.epochs_skipped = bed.engine()->epochs_skipped();
    r.fences_run = bed.engine()->fenced_sections_run();
  }
  r.failovers = bed.controller().failover_events();
  r.crashed_fe = scenario.crashed_fe();
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

TEST(ShardDeterminism, ThreadedChurnMatchesSingleThread) {
  const ChurnRun t1 = run_churn(4, 1, 7);
  const ChurnRun t2 = run_churn(4, 2, 7);
  EXPECT_EQ(t2.fingerprint, t1.fingerprint)
      << "thread count leaked into a churn (control-plane) outcome";
  EXPECT_EQ(t2.completed, t1.completed);
  EXPECT_EQ(t2.failovers, t1.failovers);
  EXPECT_EQ(t2.epochs_skipped, t1.epochs_skipped)
      << "fast-forward decisions depend on barrier-published state only, "
         "so even the skipped-epoch count must be thread-invariant";
  EXPECT_EQ(t1.violations, 0u) << t1.report;
  EXPECT_EQ(t2.violations, 0u) << t2.report;
  // The run must actually exercise the machinery it claims to test.
  EXPECT_GT(t1.failovers, 0u) << "the churn's FE crash never failed over";
  EXPECT_NE(t1.crashed_fe, 0u);
  EXPECT_GT(t1.fences_run, 0u) << "no fenced sections executed";
  EXPECT_GT(t1.completed, 100u);
  EXPECT_GT(t1.exported, 0u);
  EXPECT_EQ(t1.late_tokens, 0u);
  EXPECT_EQ(t1.stalled_pairs, 0u);
  EXPECT_EQ(t2.stalled_pairs, 0u);
}

TEST(ShardDeterminism, FastForwardDoesNotChangeOutcome) {
  const ChurnRun on = run_churn(4, 2, 9, /*fast_forward=*/true);
  const ChurnRun off = run_churn(4, 2, 9, /*fast_forward=*/false);
  EXPECT_EQ(on.fingerprint, off.fingerprint)
      << "sparse-epoch fast-forward changed an outcome (must be a pure "
         "wall-clock optimization)";
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.failovers, off.failovers);
  EXPECT_GT(on.epochs_skipped, 0u) << "fast-forward never engaged";
  EXPECT_EQ(off.epochs_skipped, 0u);
  EXPECT_EQ(on.violations, 0u) << on.report;
  EXPECT_EQ(off.violations, 0u) << off.report;
  EXPECT_EQ(on.stalled_pairs, 0u);
}

TEST(ShardDeterminism, FleetScenarioPlacesPairsAlikeAtEveryShardCount) {
  // The unsharded bed is the oracle: sharding must not move an endpoint.
  const auto homes = [](std::size_t shards) {
    core::TestbedConfig cfg = core::make_clos_testbed_config(
        kVSwitches, /*hosts_per_leaf=*/4, /*num_spines=*/4,
        /*oversubscription=*/2.0);
    cfg.shards = shards;
    core::Testbed bed(cfg);
    workload::FleetScenarioConfig sc;
    sc.num_pairs = kPairs;
    workload::FleetScenario scenario(bed, sc);
    scenario.deploy();
    std::vector<std::pair<tables::VnicId, std::size_t>> out;
    for (std::size_t i = 0; i < bed.size(); ++i) {
      bed.vswitch(i).for_each_vnic(
          [&](const vswitch::Vnic& v) { out.emplace_back(v.id(), i); });
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto unsharded = homes(1);
  ASSERT_EQ(unsharded.size(), 2 * kPairs);
  for (std::size_t shards : {2, 4, 8}) {
    EXPECT_EQ(homes(shards), unsharded) << shards << " shards";
  }
}

// ---------------------------------------------------------------------------
// CpsWorkload halves (DESIGN.md §13): each half runs on its own endpoint's
// loop and takes its VM's packets from its own adapter's sink, so two
// workloads may share a vSwitch and one workload may span shards.

struct PairsRun {
  std::vector<std::uint64_t> completed;  // per pair
  /// Per pair attempted and completed, then sent, delivered, dropped,
  /// exported and imported packets.
  std::vector<std::uint64_t> outcome;
  std::size_t cross_shard_pairs = 0;
};

/// 16 vSwitches in racks of 4 (at 2 shards, vSwitches 0-11 and 12-15).
/// Pair p is {client switch, server switch}, with client vNIC p + 1 and
/// server vNIC 100 + p, offering 2000 connections/s for 300 ms.
PairsRun run_pairs(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    std::size_t shards, int threads, common::Duration timer_window) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      16, /*hosts_per_leaf=*/4, /*num_spines=*/2, /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.shards = shards;
  cfg.threads = threads;
  core::Testbed bed(cfg);

  PairsRun r;
  std::vector<std::unique_ptr<workload::CpsWorkload>> cps;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [client_sw, server_sw] = pairs[p];
    const auto octet = static_cast<std::uint8_t>(p + 1);
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(p + 1);
    client.addr = tables::OverlayAddr{5, net::Ipv4Addr(10, 0, 1, octet)};
    vswitch::VnicConfig server;
    server.id = static_cast<tables::VnicId>(100 + p);
    server.addr = tables::OverlayAddr{5, net::Ipv4Addr(10, 0, 0, octet)};
    bed.add_vnic(client_sw, client);
    bed.add_vnic(server_sw, server);
    workload::CpsWorkloadConfig w;
    w.attempts_per_sec = 2000.0;
    w.timer_window = timer_window;
    w.seed = 50 + p;
    cps.push_back(std::make_unique<workload::CpsWorkload>(
        bed, client_sw, client.id, server_sw, server.id, w));
    if (bed.shard_of_node(static_cast<sim::NodeId>(client_sw)) !=
        bed.shard_of_node(static_cast<sim::NodeId>(server_sw))) {
      ++r.cross_shard_pairs;
    }
  }
  for (auto& c : cps) c->start();
  bed.run_for(common::milliseconds(300));
  for (auto& c : cps) c->stop();
  bed.run_for(common::milliseconds(100));

  for (const auto& c : cps) {
    r.completed.push_back(c->completed());
    r.outcome.push_back(c->attempted());
    r.outcome.push_back(c->completed());
  }
  const core::Testbed::NetTotals t = bed.net_totals();
  r.outcome.insert(r.outcome.end(), {t.sent, t.delivered, t.dropped,
                                     t.exported, t.imported});
  return r;
}

TEST(ShardDeterminism, WorkloadsSharingAVSwitchBothComplete) {
  // vSwitch 2 hosts pair 0's server and pair 1's client; the other two
  // endpoints sit on the second shard.
  const std::vector<std::pair<std::size_t, std::size_t>> pairs = {{13, 2},
                                                                  {2, 14}};
  for (const common::Duration window :
       {common::Duration{0}, support::kTimerWindow}) {
    SCOPED_TRACE("timer_window " + std::to_string(window));
    const PairsRun unsharded = run_pairs(pairs, 1, 1, window);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_GT(unsharded.completed[p], 0u) << "pair " << p << " unsharded";
    }
    const PairsRun t1 = run_pairs(pairs, 2, 1, window);
    const PairsRun t2 = run_pairs(pairs, 2, 2, window);
    EXPECT_EQ(t1.cross_shard_pairs, 2u);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_GT(t1.completed[p], 0u) << "pair " << p << " at 2 shards";
    }
    EXPECT_EQ(t2.outcome, t1.outcome)
        << "worker-thread count leaked into the outcome";
  }
}

TEST(ShardDeterminism, CrossShardPairWithCoalescedTimersIsThreadInvariant) {
  // The halves sit on two loops, so each keeps its own timer rings.
  const std::vector<std::pair<std::size_t, std::size_t>> pair = {{1, 14}};
  const PairsRun t1 = run_pairs(pair, 2, 1, support::kTimerWindow);
  const PairsRun t2 = run_pairs(pair, 2, 2, support::kTimerWindow);
  EXPECT_EQ(t1.cross_shard_pairs, 1u);
  EXPECT_GT(t1.completed[0], 100u);
  EXPECT_EQ(t2.outcome, t1.outcome);
}

TEST(ShardDeterminism, FencesExecuteInDueThenSeqOrderAndStuckOnesKeep) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      8, /*hosts_per_leaf=*/4, /*num_spines=*/2, /*oversubscription=*/2.0);
  cfg.shards = 2;
  cfg.threads = 2;
  core::Testbed bed(cfg);
  ASSERT_NE(bed.engine(), nullptr);

  const common::TimePoint t0 = bed.loop().now();
  std::vector<int> order;
  // Registered out of due order; 0 means "next barrier" (earliest).
  bed.engine()->schedule_fenced(t0 + common::milliseconds(2),
                                [&order]() { order.push_back(0); });
  bed.engine()->schedule_fenced(t0 + common::milliseconds(1),
                                [&order]() { order.push_back(1); });
  bed.engine()->schedule_fenced(t0 + common::milliseconds(1),
                                [&order]() { order.push_back(2); });
  bed.engine()->schedule_fenced(0, [&order]() { order.push_back(3); });
  // Due beyond this window: must NOT run now, must survive to the next.
  bed.engine()->schedule_fenced(t0 + common::milliseconds(10),
                                [&order]() { order.push_back(4); });

  bed.run_for(common::milliseconds(5));
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2, 0}))
      << "fences must run in (due, registration) order";
  EXPECT_EQ(bed.engine()->fences_queued(), 1u)
      << "the not-yet-due fence should remain queued (the 'stuck fence' "
         "signature nezha_trace audit reports)";
  bed.run_for(common::milliseconds(10));
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(order.back(), 4);
  EXPECT_EQ(bed.engine()->fences_queued(), 0u);
  EXPECT_EQ(bed.engine()->fenced_sections_run(), 5u);
}

// ---------------------------------------------------------------------------
// One link model across the shard boundary (DESIGN.md §13). The sending
// shard reserves the sender port and, on a cross-leaf Clos path, the uplink,
// whether or not the destination is local; the destination's shard reserves
// the downlink. So moving the destinations to another shard must change no
// drop, no delivery time, no spine byte and no port or uplink backlog. The
// flows give each downlink one sender: a local downlink is reserved at send
// time and a remote one at token injection, so two senders could reach it
// in a different order.

class SinkHost : public sim::Node {
 public:
  explicit SinkHost(sim::NodeId id)
      : Node(id, net::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(id + 1)),
             net::MacAddr(id + 1)) {}
  void receive(net::Packet) override {}
};

struct LinkRun {
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t dropped_fabric = 0;
  std::vector<std::pair<sim::NodeId, common::TimePoint>> arrivals;  // sorted
  std::vector<std::uint64_t> spine_bytes;
  /// Per 50 us sample: each sender's port backlog, then leaf 0's uplink.
  std::vector<std::size_t> backlog;
};

/// Every flow's sender lives on shard 0 and sends one 1250 B packet every
/// 7 us for 1 ms, faster than its 1 Gb/s port drains (10 us per packet).
/// On Clos, senders 0 and 1 share leaf 0's uplink, which drains at 1 Gb/s
/// too. The queues hold four (port) and about five (fabric) packets. The
/// destinations live on `dst_shard`; two worker threads drive the shards.
LinkRun run_links(const sim::TopologyConfig& topo_cfg,
                  const std::vector<std::pair<sim::NodeId, sim::NodeId>>& flows,
                  std::uint32_t dst_shard) {
  const sim::Topology topo(topo_cfg);
  const sim::NetworkConfig net_cfg{.link_bps = 1e9,
                                   .egress_queue_bytes = 5000,
                                   .fabric_link_bps = 1e9,
                                   .fabric_queue_bytes = 6000};
  sim::EventLoop loops[2];
  sim::Network net0(loops[0], topo, net_cfg);
  sim::Network net1(loops[1], topo, net_cfg);
  sim::Network* nets[2] = {&net0, &net1};
  sim::ShardedEngine engine({{&loops[0], &net0}, {&loops[1], &net1}},
                            sim::ShardedEngineConfig{});
  std::vector<std::pair<sim::NodeId, common::TimePoint>> arrivals[2];
  for (std::uint32_t s = 0; s < 2; ++s) {
    nets[s]->set_engine(&engine, s);
    // Each shard's trace runs on its own worker: one vector per shard.
    nets[s]->set_trace([&arrivals, &loops, s](common::TimePoint,
                                              const net::Packet&, sim::NodeId,
                                              sim::NodeId to) {
      arrivals[s].emplace_back(to, loops[s].now());
    });
  }
  std::vector<std::unique_ptr<SinkHost>> hosts;
  auto add_host = [&](sim::NodeId id, std::uint32_t shard) {
    hosts.push_back(std::make_unique<SinkHost>(id));
    nets[shard]->attach(*hosts.back());
    engine.map_ip(hosts.back()->underlay_ip(), shard, id);
  };
  for (const auto& [from, to] : flows) {
    add_host(from, 0);
    add_host(to, dst_shard);
    const net::Ipv4Addr to_ip = hosts.back()->underlay_ip();
    for (common::TimePoint t = 0; t < common::milliseconds(1);
         t += common::microseconds(7)) {
      loops[0].schedule_at(t, [&net0, from, to_ip] {
        const net::FiveTuple ft{net::Ipv4Addr(192, 168, 0, 1),
                                net::Ipv4Addr(192, 168, 0, 2), 1000, 80,
                                net::IpProto::kUdp};
        net0.send(from, to_ip, net::make_udp_packet(ft, 1208));
      });
    }
  }

  LinkRun r;
  for (common::TimePoint t = common::microseconds(50);
       t <= common::microseconds(1500); t += common::microseconds(50)) {
    engine.run_until(t, 2);
    for (const auto& flow : flows) {
      r.backlog.push_back(net0.port_queued_bytes(flow.first));
    }
    r.backlog.push_back(net0.fabric_queued_bytes(0));
  }
  engine.run_until(common::milliseconds(3), 2);
  EXPECT_EQ(net0.in_flight() + net1.in_flight() + engine.tokens_pending(),
            0u);
  EXPECT_EQ(engine.late_tokens(), 0u);
  for (sim::Network* n : nets) {
    r.dropped_queue_full += n->dropped_queue_full();
    r.dropped_fabric += n->dropped_fabric();
    r.spine_bytes.resize(n->spine_bytes().size());
    for (std::size_t i = 0; i < n->spine_bytes().size(); ++i) {
      r.spine_bytes[i] += n->spine_bytes()[i];
    }
  }
  for (const auto& a : arrivals) {
    r.arrivals.insert(r.arrivals.end(), a.begin(), a.end());
  }
  std::sort(r.arrivals.begin(), r.arrivals.end());
  return r;
}

void expect_same_links(const LinkRun& local, const LinkRun& remote) {
  EXPECT_EQ(remote.dropped_queue_full, local.dropped_queue_full);
  EXPECT_EQ(remote.dropped_fabric, local.dropped_fabric);
  EXPECT_EQ(remote.arrivals, local.arrivals);
  EXPECT_EQ(remote.spine_bytes, local.spine_bytes);
  EXPECT_EQ(remote.backlog, local.backlog);
}

TEST(ShardDeterminism, LinksDoNotDependOnTheDestinationShard) {
  // Clos: three leaves of two hosts under one spine. Hosts 0 and 1 share
  // leaf 0's uplink; hosts 2 and 4 sit behind separate downlinks.
  sim::TopologyConfig clos;
  clos.kind = sim::FabricKind::kClos;
  clos.clos.num_leaves = 3;
  clos.clos.hosts_per_leaf = 2;
  clos.clos.num_spines = 1;
  const LinkRun local = run_links(clos, {{0, 2}, {1, 4}}, 0);
  const LinkRun remote = run_links(clos, {{0, 2}, {1, 4}}, 1);
  // The run must overflow both the ports and the shared uplink.
  EXPECT_GT(local.dropped_queue_full, 0u);
  EXPECT_GT(local.dropped_fabric, 0u);
  EXPECT_FALSE(local.arrivals.empty());
  expect_same_links(local, remote);

  // Tiered: two hosts per ToR in one aggregation block. Host 0 → host 2
  // crosses ToRs (15 us), longer than the 8 us epoch.
  sim::TopologyConfig tiered;
  tiered.servers_per_tor = 2;
  tiered.tors_per_agg = 4;
  const LinkRun tiered_local = run_links(tiered, {{0, 2}}, 0);
  const LinkRun tiered_remote = run_links(tiered, {{0, 2}}, 1);
  EXPECT_GT(tiered_local.dropped_queue_full, 0u);
  EXPECT_FALSE(tiered_local.arrivals.empty());
  expect_same_links(tiered_local, tiered_remote);
}

// ---------------------------------------------------------------------------
// Outbox bursts (DESIGN.md §13). A shard pair's outbox holds whatever one
// epoch exchanges, however much that is, and the consumer injects it in
// push order at its next epoch start. Each burst is 600 packets from
// shard 0 to shard 1, more than the busiest pair on the 10240-vSwitch
// macro exchanges in an epoch (380), pushed from setup code, from a fenced
// section, and from a loop event in a window's last epoch, so that window
// ends with the burst pending and setup code appends another behind it.

constexpr int kBurst = 600;

struct BurstRun {
  /// (send index, delivery time) at the destination, in delivery order.
  std::vector<std::pair<std::uint16_t, common::TimePoint>> arrivals;
  /// tokens_pending() after each window, and after the setup burst that
  /// follows the third.
  std::vector<std::uint64_t> pending;
  /// Tokens shard 1 imported in each window.
  std::vector<std::uint64_t> imported;
};

BurstRun run_bursts(int threads) {
  // Two leaves of two hosts under one spine: host 0 (shard 0) sends to
  // host 2 (shard 1) across the spine.
  sim::TopologyConfig clos;
  clos.kind = sim::FabricKind::kClos;
  clos.clos.num_leaves = 2;
  clos.clos.hosts_per_leaf = 2;
  clos.clos.num_spines = 1;
  const sim::Topology topo(clos);
  const sim::NetworkConfig net_cfg{.link_bps = 100e9,
                                   .egress_queue_bytes = 16u << 20,
                                   .fabric_link_bps = 100e9,
                                   .fabric_queue_bytes = 16u << 20};
  sim::EventLoop loops[2];
  sim::Network net0(loops[0], topo, net_cfg);
  sim::Network net1(loops[1], topo, net_cfg);
  sim::ShardedEngine engine({{&loops[0], &net0}, {&loops[1], &net1}},
                            sim::ShardedEngineConfig{});
  net0.set_engine(&engine, 0);
  net1.set_engine(&engine, 1);
  SinkHost src(0);
  SinkHost dst(2);
  net0.attach(src);
  net1.attach(dst);
  engine.map_ip(src.underlay_ip(), 0, 0);
  engine.map_ip(dst.underlay_ip(), 1, 2);

  BurstRun r;
  net1.set_trace([&r](common::TimePoint at, const net::Packet& pkt,
                      sim::NodeId, sim::NodeId) {
    r.arrivals.emplace_back(pkt.inner.ft.src_port, at);
  });
  std::uint16_t next = 0;  // the send index rides in the source port
  auto burst = [&net0, &dst, &next] {
    for (int i = 0; i < kBurst; ++i) {
      const net::FiveTuple ft{net::Ipv4Addr(192, 168, 0, 1),
                              net::Ipv4Addr(192, 168, 0, 2), next++, 80,
                              net::IpProto::kUdp};
      net0.send(0, dst.underlay_ip(), net::make_udp_packet(ft, 1208));
    }
  };
  auto window = [&](common::TimePoint t) {
    const std::uint64_t before = net1.imported();
    engine.run_until(t, threads);
    r.imported.push_back(net1.imported() - before);
    r.pending.push_back(engine.tokens_pending());
    EXPECT_EQ(net0.exported() + net1.exported(),
              net0.imported() + net1.imported() + engine.tokens_pending())
        << "conservation between windows at t=" << t;
  };

  burst();  // setup code, before the first window
  window(common::microseconds(8));
  engine.schedule_fenced(common::microseconds(100), burst);  // runs at 104
  window(common::microseconds(112));
  loops[0].schedule_at(common::microseconds(299), burst);  // epoch [296, 300)
  window(common::microseconds(300));
  burst();  // setup code, behind the burst the last window left pending
  r.pending.push_back(engine.tokens_pending());
  window(common::microseconds(308));
  window(common::milliseconds(3));

  EXPECT_EQ(engine.late_tokens(), 0u);
  EXPECT_EQ(net0.in_flight() + net1.in_flight(), 0u);
  EXPECT_EQ(net0.dropped_total() + net1.dropped_total(), 0u);
  return r;
}

TEST(ShardDeterminism, OutboxBurstBeyondOldRingCapacity) {
  const BurstRun one = run_bursts(1);
  // Every burst drains in the one epoch after it is pushed.
  EXPECT_EQ(one.imported, (std::vector<std::uint64_t>{
                              kBurst, kBurst, 0, 2 * kBurst, 0}));
  EXPECT_EQ(one.pending, (std::vector<std::uint64_t>{
                             0, 0, kBurst, 2 * kBurst, 0, 0}));
  // Every packet arrives, in send order.
  ASSERT_EQ(one.arrivals.size(), 4u * kBurst);
  for (std::size_t i = 0; i < one.arrivals.size(); ++i) {
    ASSERT_EQ(one.arrivals[i].first, i) << "delivery " << i;
  }
  // Two workers deliver the same packets at the same times.
  const BurstRun two = run_bursts(2);
  EXPECT_EQ(two.arrivals, one.arrivals);
  EXPECT_EQ(two.imported, one.imported);
  EXPECT_EQ(two.pending, one.pending);
}

TEST(ShardDeterminism, FeWeightsReadThePortOnItsOwningShard) {
  // The controller runs on shard 0. A host on shard 1 fills its own port,
  // and its published weight must fold in that backlog exactly as the
  // unsharded bed does.
  constexpr sim::NodeId kHost = 13;
  auto weight_after_burst = [](std::size_t shards) {
    core::TestbedConfig cfg = core::make_clos_testbed_config(
        16, /*hosts_per_leaf=*/4, /*num_spines=*/2, /*oversubscription=*/2.0);
    cfg.shards = shards;
    cfg.threads = 2;
    core::Testbed bed(cfg);
    if (shards > 1) {
      EXPECT_EQ(bed.shard_of_node(kHost), 1u);
    }
    bed.run_for(common::milliseconds(1));
    // 1000 packets of 1250 B: 100 us of work at the 100 Gb/s port.
    const net::FiveTuple ft{net::Ipv4Addr(192, 168, 0, 1),
                            net::Ipv4Addr(192, 168, 0, 2), 1000, 80,
                            net::IpProto::kUdp};
    sim::Network& net = bed.network_of(kHost);
    for (int i = 0; i < 1000; ++i) {
      net.send(kHost, bed.vswitch(kHost - 1).underlay_ip(),
               net::make_udp_packet(ft, 1208));
    }
    bed.run_for(common::microseconds(50));
    EXPECT_GT(net.port_queued_bytes(kHost), 600000u);
    bed.controller().publish_fe_weights();
    return bed.controller().fe_weights().weight_of(
        bed.vswitch(kHost).underlay_ip());
  };
  const std::uint16_t unsharded = weight_after_burst(1);
  const std::uint16_t sharded = weight_after_burst(2);
  EXPECT_LT(unsharded, policy::FeWeightBook::kMaxWeight);
  EXPECT_EQ(sharded, unsharded);
}

}  // namespace
}  // namespace nezha
