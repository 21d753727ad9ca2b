// Monte Carlo seed sweep over the 10K-node twin (ROADMAP sharding
// follow-on): N seeds through the sharded engine with full churn enabled —
// a mid-window offload push, a monitor-detected FE crash, a fleet-wide
// hash reseed — asserting every run is invariant-clean and each seed's
// fingerprint is stable across worker-thread counts (the DESIGN.md §15
// determinism contract, exercised at fleet scale rather than on the
// 64-switch twin the determinism suite uses).
//
// Under TSan or a Debug build the twin is scaled down (same topology
// shape, fewer racks) so each parameterized case stays well inside the
// 120s ctest timeout; the Release sweep runs the full 10240-vSwitch twin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NEZHA_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define NEZHA_TSAN 1
#endif

namespace nezha {
namespace {

#if defined(NEZHA_TSAN) || !defined(NDEBUG)
constexpr std::size_t kVSwitches = 1024;  // scaled twin (sanitizer/debug)
constexpr std::uint64_t kSeeds[] = {101, 102};
#else
constexpr std::size_t kVSwitches = 10240;  // the 10K-node twin
constexpr std::uint64_t kSeeds[] = {101, 102, 103};
#endif
constexpr std::size_t kPairs = 12;
constexpr std::size_t kShards = 8;

struct SweepRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::uint64_t exported = 0;
  std::uint64_t late_tokens = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t failovers = 0;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::string report;
};

SweepRun run_seed(std::uint64_t seed, int threads) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      kVSwitches, /*hosts_per_leaf=*/8, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.monitor.probe_interval = common::milliseconds(100);
  cfg.monitor.probe_timeout = common::milliseconds(50);
  cfg.monitor.miss_threshold = 2;
  cfg.shards = kShards;
  cfg.threads = threads;  // end-to-end threaded: setup, churn and all
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 200.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  scenario.offload_all(/*holdback=*/kPairs / 4);
  bed.run_for(common::milliseconds(700));
  checker.check();

  scenario.start_traffic();
  scenario.schedule_churn(common::milliseconds(100),
                          common::milliseconds(250),
                          common::milliseconds(600));
  for (int slice = 0; slice < 4; ++slice) {
    bed.run_for(common::milliseconds(300));
    checker.check();
  }
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(400));
  checker.check();

  SweepRun r;
  r.fingerprint = scenario.fingerprint();
  for (const auto& wl : scenario.workloads()) r.completed += wl->completed();
  r.exported = bed.net_totals().exported;
  r.late_tokens = bed.engine()->late_tokens();
  r.epochs_skipped = bed.engine()->epochs_skipped();
  r.failovers = bed.controller().failover_events();
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

class ShardSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSeedSweep, ChurnRunIsCleanAndThreadInvariant) {
  const std::uint64_t seed = GetParam();
  const SweepRun t1 = run_seed(seed, 1);
  const SweepRun t2 = run_seed(seed, 2);

  EXPECT_EQ(t1.violations, 0u) << "seed " << seed << ":\n" << t1.report;
  EXPECT_EQ(t2.violations, 0u) << "seed " << seed << ":\n" << t2.report;
  EXPECT_EQ(t2.fingerprint, t1.fingerprint)
      << "seed " << seed << ": thread count changed the outcome";
  EXPECT_EQ(t2.completed, t1.completed);
  EXPECT_EQ(t2.failovers, t1.failovers);

  // The sweep must exercise what it claims: cross-shard traffic, a real
  // failover, connection progress, fast-forwarded epochs, zero lookahead
  // violations at 10K-node scale.
  EXPECT_GT(t1.exported, 0u);
  EXPECT_EQ(t1.late_tokens, 0u);
  EXPECT_GT(t1.epochs_skipped, 0u);
  EXPECT_GT(t1.failovers, 0u) << "seed " << seed << ": no failover fired";
  EXPECT_GT(t1.completed, 100u);
  EXPECT_EQ(t1.stalled_pairs, 0u) << "seed " << seed;
  EXPECT_EQ(t2.stalled_pairs, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSeedSweep, ::testing::ValuesIn(kSeeds),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace nezha
