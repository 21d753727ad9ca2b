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
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/testbed.h"
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

}  // namespace
}  // namespace nezha
