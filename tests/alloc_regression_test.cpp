// Allocation-regression guard for the zero-allocation datapath contract:
// a steady-state packet through the full BE↔FE offload path (client →
// FE → BE → VM, and BE → FE → client on the reverse direction) must not
// touch the heap. Counted with the nezha_alloc_hook operator-new
// replacement linked into this binary.
//
// A second test pins the per-connection-SETUP allocation count (session
// table entry, FE flow-cache entry, pre-action cache) so growth there is
// visible in review rather than silent.
// A third test drives the production connection-setup fast path (CPS
// workload with burst windows, DESIGN.md §11) and pins its allocation rate:
// once slabs are warm, opening a connection must be allocation-free apart
// from the session-table slab growing toward its TTL equilibrium.
// The session-table tests pin its host-memory budget: an empty table
// allocates nothing; a session sharing its pre-actions costs at most 120
// allocated bytes (one 64-B node and its share of the index and the wheel),
// one with a value of its own at most 240, and one that is also counted and
// rate-limited no more than a shared session did with the two-line node;
// aging sweeps at a churn equilibrium allocate nothing.
// The fixed-cost tests pin what holds nothing: a rule-table set with empty
// policy tables, a first setup-cache miss, a bounded estimator's buckets,
// and an offload's FE placement, whose bytes do not grow with the fleet;
// nor do a weight publication's bytes per vSwitch.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/flow/session_table.h"
#include "src/tables/rule_set.h"
#include "src/vswitch/vswitch.h"
#include "src/workload/cps_workload.h"
#include "support/alloc_hook.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;
using vswitch::VnicMode;

constexpr std::uint32_t kVpc = 5;
constexpr VnicId kClientVnic = 1;
constexpr VnicId kServerVnic = 2;

// The offloaded TCP pair of support/scenarios.h, which bench_engine_hotpath's
// steady-state allocation audit also runs.
class AllocRegressionTest : public ::testing::Test {
 protected:
  AllocRegressionTest() : bed_(support::tcp_pair_config()) {}

  void offload_server() {
    ASSERT_TRUE(support::add_offloaded_tcp_pair(bed_));
    ASSERT_EQ(bed_.vswitch(1).vnic(kServerVnic)->mode(),
              VnicMode::kOffloaded);
  }

  core::Testbed bed_;
};

TEST_F(AllocRegressionTest, SteadyStatePacketsAllocateNothing) {
  offload_server();
  // Warmup: size every slab and table.
  support::pump_tcp_pair(bed_, 40000, /*iterations=*/256);

  const std::uint64_t delivered_before = bed_.network().delivered();
  const std::uint64_t allocs_before = support::alloc_counts().news;
  support::pump_tcp_pair(bed_, 40000, /*iterations=*/1024);
  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  const std::uint64_t window_packets =
      bed_.network().delivered() - delivered_before;

  // The window must have carried real traffic (4 underlay hops per pump
  // iteration: client→FE, FE→BE, BE→FE, FE→client).
  EXPECT_GE(window_packets, 4 * 1024u);
  EXPECT_EQ(window_allocs, 0u)
      << "steady-state datapath allocated " << window_allocs << " times over "
      << window_packets << " packets";
}

TEST_F(AllocRegressionTest, ConnectionSetupAllocationsArePinned) {
  offload_server();
  // Warm the shared slabs/tables first.
  support::pump_tcp_pair(bed_, 40000, /*iterations=*/256);

  // Open fresh connections (distinct 5-tuples): each creates a BE session
  // entry, an FE flow-cache entry, and a cached pre-actions copy, all of
  // which legitimately allocate — but the count per connection is a budget,
  // not a blank check. Pin it so creep shows up as a test failure.
  constexpr int kConns = 64;
  const std::uint64_t allocs_before = support::alloc_counts().news;
  for (int c = 0; c < kConns; ++c) {
    const net::FiveTuple ft =
        support::tcp_pair_flow(static_cast<std::uint16_t>(41000 + c));
    bed_.vswitch(0).from_vm(
        kClientVnic, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 100,
                                          support::kVpc));
    bed_.run_for(milliseconds(1));
  }
  const std::uint64_t setup_allocs =
      support::alloc_counts().news - allocs_before;
  const double per_conn =
      static_cast<double>(setup_allocs) / static_cast<double>(kConns);

  // Budget: hash-table nodes for the BE session entry, the FE cache entry
  // and the client-side session entry, plus occasional table rehashes
  // amortized across the batch. Measured ~6/conn; 12 leaves headroom for
  // rehash spikes without hiding a per-packet regression (which would add
  // hundreds across the 64-connection batch).
  EXPECT_LE(per_conn, 12.0)
      << "connection setup now allocates " << per_conn
      << " times per connection (" << setup_allocs << " total)";
}

// The hand-crafted-SYN budget above measures table costs per brand-new
// 5-tuple. This one measures the whole production setup phase — closed-loop
// CPS workloads, coalesced timers, burst windows, session aging — where
// tuples recycle and every per-connection step must run out of pools:
// after a warmup that sizes the slabs, the per-connection allocation rate
// must stay near zero (the residual is the session-table slab still growing
// toward its established-TTL equilibrium, amortized over thousands of
// connections). A heap-spilling closure on any handshake step costs ~0.5
// allocations per connection and fails this immediately.
TEST(CpsSetupPhaseAllocTest, WarmSetupPathAllocatesNearZeroPerConnection) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 4;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.vswitch.learning_interval = seconds(100000);
  // The production burst configuration (bench_engine_hotpath's e2e row).
  support::use_burst_windows(cfg);
  core::Testbed bed(cfg);

  VnicConfig server;
  server.id = kServerVnic;
  server.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 2)};
  bed.add_vnic(0, server);
  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < 2; ++c) {
    VnicConfig client;
    client.id = static_cast<VnicId>(10 + c);
    client.addr =
        OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    bed.add_vnic(1 + static_cast<std::size_t>(c), client);
    workload::CpsWorkloadConfig w;
    w.concurrency = 64;
    w.seed = 900 + static_cast<std::uint64_t>(c);
    w.timer_window = support::kTimerWindow;
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, 1 + static_cast<std::size_t>(c), client.id, 0, kServerVnic, w));
  }
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();

  for (auto& c : clients) c->start();
  bed.run_for(milliseconds(600));  // warmup: size pools, rings, tables

  const std::uint64_t allocs_before = support::alloc_counts().news;
  std::uint64_t conns_before = 0;
  for (auto& c : clients) conns_before += c->completed();

  bed.run_for(seconds(1));

  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  std::uint64_t window_conns = 0;
  for (auto& c : clients) window_conns += c->completed();
  window_conns -= conns_before;
  for (auto& c : clients) c->stop();

  ASSERT_GT(window_conns, 10000u) << "scenario carried too little load to "
                                  << "make the per-connection rate meaningful";
  const double per_conn =
      static_cast<double>(window_allocs) / static_cast<double>(window_conns);
  // Same contract the bench --smoke gates at 0.02 over a longer window; the
  // shorter test window sees proportionally more slab-growth residue, so
  // the budget is looser — but still ~5x below one spilled closure.
  EXPECT_LE(per_conn, 0.1)
      << "setup phase allocated " << window_allocs << " times over "
      << window_conns << " connections (" << per_conn << "/connection)";
}

// A health-probe round — the monitor's probe to every watched vSwitch, each
// vSwitch's reply after its CPU charge, and the probe's timeout check —
// allocates nothing once the monitor's ownership table and the vSwitches'
// op slabs have held a round.
TEST(HealthProbeAllocTest, SteadyProbeRoundsAllocateNothing) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 16;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);
  for (std::size_t i = 0; i < bed.size(); ++i) {
    bed.monitor().watch(bed.vswitch(i).id(), bed.vswitch(i).underlay_ip());
  }
  bed.monitor().start();
  bed.run_for(seconds(2));  // four rounds size every slab and table

  const std::uint64_t sent_before = bed.monitor().probes_sent();
  const std::uint64_t replies_before = bed.monitor().replies_received();
  const std::uint64_t allocs_before = support::alloc_counts().news;
  bed.run_for(seconds(10));  // 20 rounds
  const std::uint64_t allocs = support::alloc_counts().news - allocs_before;

  EXPECT_EQ(bed.monitor().probes_sent() - sent_before, 20u * bed.size());
  EXPECT_EQ(bed.monitor().replies_received() - replies_before,
            20u * bed.size());
  EXPECT_EQ(bed.monitor().crashes_declared(), 0u);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / 20.0
                        << " allocations per probe round";
}

// One offload's placement keeps the best four hosts in one pass over the
// fleet and holds nothing per host, so trigger_offload allocates the same
// bytes on a 64-vSwitch and a 1,024-vSwitch Clos bed.
TEST(PlacementAllocTest, OffloadBytesDoNotGrowWithTheFleet) {
  const auto offload_bytes = [](std::size_t vswitches) {
    core::TestbedConfig cfg = core::make_clos_testbed_config(vswitches);
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    core::Testbed bed(cfg);
    VnicConfig v;
    v.id = 7;
    v.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 7)};
    bed.add_vnic(5, v);
    const std::uint64_t before = support::alloc_counts().bytes;
    EXPECT_TRUE(bed.controller().trigger_offload(7).ok());
    const std::uint64_t bytes = support::alloc_counts().bytes - before;
    EXPECT_EQ(bed.controller().fe_nodes_of(7),
              (std::vector<sim::NodeId>{4, 6, 7, 0}));
    return bytes;
  };
  EXPECT_EQ(offload_bytes(64), offload_bytes(1024));
}

// A weight publication builds one book that every vSwitch shares, so its
// bytes per vSwitch (the book's entry for that host) do not grow with the
// fleet; a copy of the book per vSwitch would cost a fleet-sized book each.
TEST(PlacementAllocTest, WeightPublishBytesPerVSwitchDoNotGrowWithTheFleet) {
  const auto publish_bytes_per_vswitch = [](std::size_t vswitches) {
    core::TestbedConfig cfg = core::make_clos_testbed_config(vswitches);
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    cfg.controller.fe_policy = policy::PolicyKind::kLoadAwareWeighted;
    core::Testbed bed(cfg);
    const std::uint64_t before = support::alloc_counts().bytes;
    bed.controller().publish_fe_weights();
    const std::uint64_t bytes = support::alloc_counts().bytes - before;
    EXPECT_EQ(bed.vswitch(vswitches - 1).fe_weights().version, 1u);
    return static_cast<double>(bytes) / static_cast<double>(vswitches);
  };
  const double small = publish_bytes_per_vswitch(256);
  const double large = publish_bytes_per_vswitch(1024);
  EXPECT_GT(small, 0.0);
  EXPECT_LE(large, small);
}

// Session n of the table tests below: distinct, allocation-free keys.
flow::SessionKey nth_key(std::uint32_t n) {
  return flow::SessionKey::from_packet(
      kVpc, net::FiveTuple{net::Ipv4Addr(0x0a000000u | (n >> 16)),
                           net::Ipv4Addr(10, 1, 0, 1),
                           static_cast<std::uint16_t>(n), 80,
                           net::IpProto::kTcp});
}

TEST(SessionTableAllocTest, EmptyTableAllocatesNothing) {
  const support::AllocCounts before = support::alloc_counts();
  {
    flow::SessionTable table{flow::SessionTableConfig{}};
    EXPECT_EQ(table.find(nth_key(1)), nullptr);
    table.prefetch_entry(table.prefetch_index(nth_key(1)));
    EXPECT_EQ(table.age_out(seconds(30)), 0u);
  }
  const support::AllocCounts after = support::alloc_counts();
  EXPECT_EQ(after.news - before.news, 0u);
  EXPECT_EQ(after.bytes - before.bytes, 0u);
}

// Allocated bytes per session when 65,536 sessions, created over one
// second, each cache value(n) and then pass through use(table, entry, now);
// `distinct` is how many values that makes.
template <typename ValueFn, typename UseFn>
double bytes_per_session(ValueFn value, std::size_t distinct, UseFn use) {
  constexpr std::uint32_t kSessions = 65536;
  const std::uint64_t bytes_before = support::alloc_counts().bytes;
  {
    flow::SessionTable table{flow::SessionTableConfig{}};
    for (std::uint32_t n = 0; n < kSessions; ++n) {
      const auto now = static_cast<common::TimePoint>(
          std::uint64_t{n} * common::kSecond / kSessions);
      flow::SessionEntry* e = table.find_or_create(nth_key(n), now);
      EXPECT_NE(e, nullptr);
      if (e == nullptr) continue;
      table.set_pre_actions(*e, value(n));
      use(table, *e, now);
    }
    EXPECT_EQ(table.size(), kSessions);
    EXPECT_EQ(table.pre_action_pool_size(), distinct);
  }
  return static_cast<double>(support::alloc_counts().bytes - bytes_before) /
         kSessions;
}

template <typename ValueFn>
double bytes_per_session(ValueFn value, std::size_t distinct) {
  return bytes_per_session(
      value, distinct,
      [](flow::SessionTable&, flow::SessionEntry&, common::TimePoint) {});
}

flow::PreActions routed_pre_actions() {
  flow::PreActions p;
  p.rule_version = 3;
  p.tx.next_hop.ip = net::Ipv4Addr(192, 168, 0, 9);
  return p;
}

TEST(SessionTableAllocTest, SharedPreActionsCostUnder200BytesPerSession) {
  const double per_session =
      bytes_per_session([](std::uint32_t) { return routed_pre_actions(); }, 1);
  EXPECT_LE(per_session, 200.0)
      << "a session with shared pre-actions allocates " << per_session << " B";
}

// One 64-B node holds the key and every hot field, and the counters and
// the QoS bucket stay out of it: a shared-value session pays that line plus
// its share of the index and the wheel. The 96-B node with a parallel key
// slab cost 168.2 B here.
TEST(SessionTableAllocTest, SharedPreActionsCostUnder120BytesPerSession) {
  const double per_session =
      bytes_per_session([](std::uint32_t) { return routed_pre_actions(); }, 1);
  EXPECT_LE(per_session, 120.0)
      << "a session with shared pre-actions allocates " << per_session << " B";
}

flow::PreActions unique_pre_actions(std::uint32_t n) {
  flow::PreActions p = routed_pre_actions();
  p.tx.nat_enabled = true;
  p.tx.nat_ip = net::Ipv4Addr(0x64400000u | (n >> 16));
  p.tx.nat_port = static_cast<std::uint16_t>(n);
  return p;
}

// The worst case for interning: a per-tuple NAT endpoint gives every flow
// its own value, so each session pays a pooled value and its index cell.
// 298.2 B per session on this insert sequence is what a session cost when
// every node carried its own inline copy of the pre-actions (a 216-B node
// plus its key); interning must never cost more than that.
TEST(SessionTableAllocTest, UniquePreActionsCostNoMoreThanInlineCopies) {
  const double per_session = bytes_per_session(unique_pre_actions, 65536);
  EXPECT_LE(per_session, 298.2)
      << "a session with unique pre-actions allocates " << per_session << " B";
}

// The same with the one-line node: the two-line node cost 290.2 B here.
TEST(SessionTableAllocTest, UniquePreActionsCostUnder240BytesPerSession) {
  const double per_session = bytes_per_session(unique_pre_actions, 65536);
  EXPECT_LE(per_session, 240.0)
      << "a session with unique pre-actions allocates " << per_session << " B";
}

// The worst case for the side storage: every session is counted under a
// statistics policy and rate-limited, so every chunk gets its 48-B-a-slot
// array. Even then a session costs no more than a shared-value session did
// when the counters and the bucket sat in a 96-B node (168.2 B).
TEST(SessionTableAllocTest, CountedAndRateLimitedSessionsCostUnderTheOldNode) {
  const double per_session = bytes_per_session(
      [](std::uint32_t) { return routed_pre_actions(); }, 1,
      [](flow::SessionTable& table, flow::SessionEntry& e,
         common::TimePoint now) {
        e.state.stats_mode = flow::StatsMode::kPacketsAndBytes;
        table.observe(e, flow::Direction::kTx, net::TcpFlags{.syn = true},
                      true, 100, now);
        EXPECT_TRUE(table.qos_admit(e, 1000, 800, now));
        EXPECT_EQ(table.counters(e).bytes_tx, 100u);
      });
  EXPECT_LE(per_session, 168.2)
      << "a counted, rate-limited session allocates " << per_session << " B";
}

// A table holding a few dozen sessions pays for a few dozen nodes: 30
// stateful sessions sharing one pre-action value, each observed once and
// then swept (every one survives its first visit), cost two slab chunks
// (16 + 32 nodes), the index as it doubles from 8 cells to 64, 128 wheel
// heads and a one-value pool chunk: 5,240 B. With a 512-node first chunk
// and a ref vector per wheel bucket they cost 39,176 B.
TEST(SessionTableAllocTest, ThirtySessionTableAllocatesUnder6KB) {
  const std::uint64_t bytes_before = support::alloc_counts().bytes;
  std::uint64_t bytes = 0;
  {
    flow::SessionTable table{flow::SessionTableConfig{}};
    for (std::uint32_t n = 0; n < 30; ++n) {
      const common::TimePoint now = milliseconds(n);
      flow::SessionEntry* e = table.find_or_create(nth_key(n), now);
      ASSERT_NE(e, nullptr);
      table.set_pre_actions(*e, routed_pre_actions());
      table.observe(*e, flow::Direction::kTx, net::TcpFlags{.syn = true},
                    true, 100, now);
    }
    EXPECT_EQ(table.age_out(milliseconds(500)), 0u);  // embryonic TTL: 1 s
    EXPECT_EQ(table.size(), 30u);
    bytes = support::alloc_counts().bytes - bytes_before;
  }
  EXPECT_LE(bytes, 6144u) << "a 30-session table allocated " << bytes << " B";
}

// An FE flow cache pays for the values it holds: 3 flows sharing one value
// cost the first slab chunk (16 nodes), an 8-cell index, 8 wheel heads and
// a one-value pool chunk with its 8-cell index: 1,320 B. With 8-value pool
// chunks and a 64-cell first index they cost 2,384 B.
TEST(SessionTableAllocTest, ThreeFlowCacheAllocatesUnder1536B) {
  const std::uint64_t bytes_before = support::alloc_counts().bytes;
  std::uint64_t bytes = 0;
  {
    flow::SessionTable table{flow::SessionTableConfig{.store_state = false}};
    for (std::uint32_t n = 0; n < 3; ++n) {
      flow::SessionEntry* e = table.find_or_create(nth_key(n), milliseconds(n));
      ASSERT_NE(e, nullptr);
      table.set_pre_actions(*e, routed_pre_actions());
    }
    EXPECT_EQ(table.pre_action_pool_size(), 1u);
    bytes = support::alloc_counts().bytes - bytes_before;
  }
  EXPECT_LE(bytes, 1536u) << "a 3-flow cache allocated " << bytes << " B";
}

// 1000 new established sessions and 1000 evictions per 100 ms sweep: an
// 80K-entry equilibrium. Once every wheel cell and the re-queue buffer have
// held a full sweep's worth, neither inserting nor sweeping allocates.
TEST(SessionTableAllocTest, AgingSweepsAtEquilibriumAllocateNothing) {
  flow::SessionTable table{flow::SessionTableConfig{}};
  std::uint32_t next = 0;
  std::size_t evicted = 0;
  const auto churn = [&](int sweeps, common::TimePoint& now) {
    for (int s = 0; s < sweeps; ++s) {
      now += milliseconds(100);
      for (int i = 0; i < 1000; ++i) {
        ASSERT_NE(table.find_or_create(nth_key(next++), now), nullptr);
      }
      evicted += table.age_out(now);
    }
  };
  common::TimePoint now = 0;
  churn(250, now);  // 8 s to fill, then two turns of the 128-bucket ring
  ASSERT_EQ(table.size(), 80000u);

  const std::uint64_t evicted_before = evicted;
  const std::uint64_t allocs_before = support::alloc_counts().news;
  constexpr int kSweeps = 50;
  churn(kSweeps, now);
  const std::uint64_t allocs = support::alloc_counts().news - allocs_before;
  EXPECT_EQ(evicted - evicted_before, kSweeps * 1000u);
  EXPECT_EQ(table.size(), 80000u);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) / kSweeps
                        << " allocations per sweep";
}

// The five LPM policy tables of a rule-table set allocate their levels on
// the first insert, so a set that holds no policy prefixes is small and
// copying it (FE install, the offload closure) allocates nothing.
TEST(RuleTableSetAllocTest, EmptyPolicyTablesCostNothing) {
  EXPECT_LE(sizeof(tables::RuleTableSet), 1024u);
  const tables::RuleTableSet set;
  const support::AllocCounts before = support::alloc_counts();
  {
    const tables::RuleTableSet copy = set;
    EXPECT_EQ(copy.memory_bytes(), set.memory_bytes());
  }
  EXPECT_EQ(support::alloc_counts().bytes - before.bytes, 0u);
}

// The flow-setup cache starts at four entries: the first miss pays for
// those, not for a 64-entry table.
TEST(RuleTableSetAllocTest, FirstSetupMissAllocatesUnder600Bytes) {
  tables::RuleTableSet set;
  const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                          net::Ipv4Addr(10, 0, 0, 2), 40000, 80,
                          net::IpProto::kTcp};
  (void)set.lookup(ft);  // builds the ACL index outside the window
  const std::uint64_t bytes_before = support::alloc_counts().bytes;
  (void)set.lookup_cached(ft);
  const std::uint64_t bytes = support::alloc_counts().bytes - bytes_before;
  EXPECT_EQ(set.setup_cache_misses(), 1u);
  EXPECT_LE(bytes, 600u) << "the first setup-cache miss allocated " << bytes
                         << " B";
}

// A bounded estimator stores counters only for the buckets its samples
// touch: 2,000 nominal buckets, 20 of them used.
TEST(PercentilesAllocTest, BoundedEstimatorCostsItsSpan) {
  const support::AllocCounts before = support::alloc_counts();
  std::uint64_t news_at_span = 0;
  {
    common::Percentiles p = common::Percentiles::bounded(0, 20000, 2000);
    common::Rng rng(7);
    p.add(100.0);  // first and last bucket of the span
    p.add(299.9);
    news_at_span = support::alloc_counts().news;
    for (int i = 2; i < 10000; ++i) p.add(rng.uniform(100.0, 300.0));
    EXPECT_EQ(support::alloc_counts().news - news_at_span, 0u);
    EXPECT_EQ(p.count(), 10000u);
  }
  const std::uint64_t bytes = support::alloc_counts().bytes - before.bytes;
  EXPECT_LE(bytes, 1024u) << "the estimator allocated " << bytes << " B";
}

}  // namespace
}  // namespace nezha
