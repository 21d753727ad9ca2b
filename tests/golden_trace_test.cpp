// Golden-trace determinism test.
//
// Runs a fixed-seed failover scenario (the Fig 14 shape: steady traffic, an
// FE crash, ping-based detection, failover, recovery) and fingerprints every
// simulation-determined counter. Two in-process runs must agree bit-for-bit,
// and the fingerprint must equal a recorded golden constant — so any change
// to event ordering, timer math, hashing, or controller logic that alters
// observable behaviour fails loudly here rather than silently shifting
// benchmark numbers.
//
// Re-baselining: if you changed engine behaviour ON PURPOSE, run this test,
// take the "fingerprint=0x..." value from the failure message, update
// kGoldenFingerprint below, and call out the behaviour change in your PR
// description (see README "Golden trace" section).
#include <gtest/gtest.h>

#include <cstdint>

#include "support/scenarios.h"

namespace nezha {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct TraceResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failovers = 0;
};

/// One complete failover run. Everything observable derives from the fixed
/// config, so repeated calls must produce identical results.
TraceResult run_failover_trace() {
  core::Testbed bed(support::pair_config(/*clos=*/false));
  support::add_pair(bed);
  std::uint64_t delivered = 0;
  bed.vswitch(support::kPairServerHost)
      .set_vm_delivery(
          [&](tables::VnicId, const net::Packet&) { ++delivered; });
  support::offload_pair(bed);
  bed.watch_fe_hosts();
  bed.monitor().start();

  // 64 flows x 50 pps steady traffic toward the offloaded server.
  support::pump_pair(bed, /*flows=*/64, common::milliseconds(20),
                     common::seconds(12), {});
  bed.run_for(common::seconds(2));

  // Crash the first FE that is not the client's host; run to recovery.
  support::crash_pair_fe(bed);
  bed.run_for(common::seconds(8));

  TraceResult r;
  r.delivered = delivered;
  r.failovers = bed.controller().failover_events();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, delivered);
  const sim::Network& net = bed.network();
  h = fnv1a(h, net.sent());
  h = fnv1a(h, net.delivered());
  h = fnv1a(h, net.dropped_total());
  h = fnv1a(h, net.in_flight());
  h = fnv1a(h, net.total_bytes_sent());
  const core::Controller& ctl = bed.controller();
  h = fnv1a(h, ctl.offload_events());
  h = fnv1a(h, ctl.fallback_events());
  h = fnv1a(h, ctl.scale_out_events());
  h = fnv1a(h, ctl.scale_in_events());
  h = fnv1a(h, ctl.failover_events());
  h = fnv1a(h, ctl.fes_provisioned_total());
  h = fnv1a(h, bed.monitor().crashes_declared());
  h = fnv1a(h, static_cast<std::uint64_t>(bed.loop().now()));
  r.fingerprint = h;
  return r;
}

/// Recorded fingerprint of the scenario above. Update ONLY for intentional
/// engine-behaviour changes (see file comment for the procedure).
constexpr std::uint64_t kGoldenFingerprint = 0x56043051879ec689ULL;

TEST(GoldenTrace, FailoverRunIsDeterministic) {
  const TraceResult a = run_failover_trace();
  const TraceResult b = run_failover_trace();
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "same-seed runs diverged: the engine has a nondeterminism bug";
  EXPECT_EQ(a.delivered, b.delivered);

  // Sanity: the scenario exercised what it claims to.
  EXPECT_GT(a.delivered, 0u);
  EXPECT_GE(a.failovers, 1u) << "FE crash did not trigger a failover";
}

TEST(GoldenTrace, FailoverRunMatchesGoldenFingerprint) {
  const TraceResult r = run_failover_trace();
  EXPECT_EQ(r.fingerprint, kGoldenFingerprint)
      << "fingerprint=0x" << std::hex << r.fingerprint << std::dec
      << "\nEngine-observable behaviour changed. If intentional, re-baseline:"
      << "\n  1. copy the fingerprint above into kGoldenFingerprint"
      << "\n     (tests/golden_trace_test.cpp)"
      << "\n  2. explain the behaviour change in your PR description"
      << "\nSee README 'Golden trace' for details.";
}

}  // namespace
}  // namespace nezha
