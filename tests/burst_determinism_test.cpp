// Determinism guarantees of burst-mode processing (DESIGN.md §11).
//
// Burst windows (network RX drain, vSwitch CPU-op drain, workload timer
// coalescing) quantize WHEN work runs, but the drain order within a window
// is fixed (enqueue order = the order exact timing would have used), so a
// burst-mode run is exactly as deterministic as an exact-timing run: the
// same (config, seed) must reproduce the same packet/connection fingerprint
// bit-for-bit. These tests pin that, plus the two supporting contracts:
// exact timing (all windows 0, the unit-test default) is untouched by the
// burst machinery, and a burst run's event interleaving stays within a
// fraction of a percent of the exact-timing run — the quantization skew the
// bench re-baseline accounted for, not a behavioral change.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using common::milliseconds;

struct Fingerprint {
  std::uint64_t delivered = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;

  bool operator==(const Fingerprint& o) const {
    return delivered == o.delivered && sent == o.sent &&
           completed == o.completed && attempted == o.attempted;
  }
};

struct RunOptions {
  bool bursts = false;
  bool check_invariants = false;
};

/// A small two-client CPS scenario (the e2e bench's shape, scaled down to
/// test runtime); returns its end-of-run fingerprint.
Fingerprint run_scenario(const RunOptions& opt) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 4;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  // The production burst configuration (bench_engine_hotpath's e2e row).
  if (opt.bursts) support::use_burst_windows(cfg);
  core::Testbed bed(cfg);

  constexpr std::uint32_t kVpc = 9;
  constexpr tables::VnicId kServer = 50;
  vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 50)};
  bed.add_vnic(0, server);

  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < 2; ++c) {
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(c + 1);
    client.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    const std::size_t client_switch = 1 + static_cast<std::size_t>(c);
    bed.add_vnic(client_switch, client);
    workload::CpsWorkloadConfig w;
    // Enough in-flight connections to ride at capacity (like the bench's
    // e2e scenario): a capacity-bound closed loop pipelines away the
    // window-quantization latency, a starved one would multiply it.
    w.concurrency = 128;
    w.seed = 700 + static_cast<std::uint64_t>(c);
    if (opt.bursts) w.timer_window = support::kTimerWindow;
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, client_switch, client.id, 0, kServer, w));
  }
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();

  core::InvariantChecker checker(bed, {.seed = 700});
  if (opt.check_invariants) checker.attach(milliseconds(10));

  for (auto& c : clients) c->start();
  bed.run_for(milliseconds(400));
  for (auto& c : clients) c->stop();

  if (opt.check_invariants) {
    EXPECT_GE(checker.checks_run(), 10u);
    EXPECT_TRUE(checker.ok()) << checker.report();
  }

  Fingerprint fp;
  fp.delivered = bed.network().delivered();
  fp.sent = bed.network().sent();
  for (auto& c : clients) {
    fp.completed += c->completed();
    fp.attempted += c->attempted();
  }
  return fp;
}

TEST(BurstDeterminismTest, TwoBurstRunsProduceIdenticalFingerprints) {
  const Fingerprint a = run_scenario({.bursts = true});
  const Fingerprint b = run_scenario({.bursts = true});
  EXPECT_TRUE(a == b) << "burst-mode run is not reproducible: " << a.delivered
                      << "/" << a.completed << " vs " << b.delivered << "/"
                      << b.completed;
  EXPECT_GT(a.completed, 1000u);  // the scenario carried real load
}

TEST(BurstDeterminismTest, TwoExactRunsProduceIdenticalFingerprints) {
  const Fingerprint a = run_scenario({.bursts = false});
  const Fingerprint b = run_scenario({.bursts = false});
  EXPECT_TRUE(a == b);
  EXPECT_GT(a.completed, 1000u);
}

// Burst windows quantize event timing, which may legitimately shift the
// closed-loop interleaving — but only by the window skew, never by a
// behavioral amount. A drift beyond 1% means a burst path dropped,
// duplicated, or reordered work beyond its window.
TEST(BurstDeterminismTest, BurstFingerprintStaysWithinWindowSkewOfExact) {
  const Fingerprint burst = run_scenario({.bursts = true});
  const Fingerprint exact = run_scenario({.bursts = false});
  const auto close = [](std::uint64_t x, std::uint64_t y) {
    const double lo = static_cast<double>(x < y ? x : y);
    const double hi = static_cast<double>(x < y ? y : x);
    return hi <= lo * 1.01;
  };
  EXPECT_TRUE(close(burst.delivered, exact.delivered))
      << burst.delivered << " vs exact " << exact.delivered;
  EXPECT_TRUE(close(burst.completed, exact.completed))
      << burst.completed << " vs exact " << exact.completed;
}

TEST(BurstDeterminismTest, BurstRunSatisfiesInvariantHarness) {
  run_scenario({.bursts = true, .check_invariants = true});
}

}  // namespace
}  // namespace nezha
