// Monte Carlo seed sweep for the policy lab (DESIGN.md §14): sixteen
// seeds on a small Clos bed, each running deploy → offload → traffic →
// mid-run FE crash → recovery with the InvariantChecker green throughout.
// Policies rotate across seeds so every strategy sees a third of the
// sweep. Per-seed fingerprints are printed and attached to the test
// record — a future change that shifts any seed's outcome shows up as a
// fingerprint diff in the log, not just a pass/fail bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/policy/fe_policy.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using policy::PolicyKind;

struct SweepRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::string report;
};

SweepRun run_seed(std::uint64_t seed, PolicyKind kind) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      16, /*hosts_per_leaf=*/4, /*num_spines=*/4, /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  cfg.shards = 2;
  cfg.threads = 1;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = 2;
  sc.base_attempts_per_sec = 200.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  scenario.offload_all();
  checker.record("offload_all seed=" + std::to_string(seed));
  bed.run_for(common::seconds(1));
  checker.check();

  scenario.start_traffic();
  bed.run_for(common::milliseconds(500));
  checker.check();

  // Crash one FE of the first offloaded vNIC; the victim varies with the
  // seed via the placement the scenario produced.
  for (tables::VnicId id : bed.controller().vnic_ids()) {
    if (!bed.controller().is_offloaded(id)) continue;
    const auto pool = bed.controller().fe_nodes_of(id);
    if (pool.empty()) continue;
    const sim::NodeId victim = pool[seed % pool.size()];
    for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
      bed.network_of_shard(s).crash(victim);
    }
    checker.record("crash node=" + std::to_string(victim));
    bed.controller().handle_fe_crash(victim);
    break;
  }

  bed.run_for(common::milliseconds(500));
  checker.check();
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(250));
  checker.check();

  SweepRun r;
  r.fingerprint = scenario.fingerprint();
  for (const auto& wl : scenario.workloads()) r.completed += wl->completed();
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

TEST(PolicySeedSweepTest, SixteenSeedsStayInvariantCleanAcrossPolicies) {
  constexpr PolicyKind kRotation[3] = {PolicyKind::kStaticHash,
                                       PolicyKind::kLoadAwareWeighted,
                                       PolicyKind::kPushAsideDisplacement};
  std::vector<std::uint64_t> fingerprints;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const PolicyKind kind = kRotation[seed % 3];
    const SweepRun r = run_seed(seed, kind);
    EXPECT_EQ(r.violations, 0u)
        << "seed " << seed << " (" << policy::to_string(kind) << "):\n"
        << r.report;
    EXPECT_GT(r.completed, 0u) << "seed " << seed << " completed nothing";
    EXPECT_EQ(r.stalled_pairs, 0u) << "seed " << seed;
    std::printf("seed %2llu policy=%-11s fingerprint=%016llx completed=%llu\n",
                static_cast<unsigned long long>(seed),
                policy::to_string(kind),
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.completed));
    RecordProperty("fingerprint_seed_" + std::to_string(seed),
                   std::to_string(r.fingerprint));
    fingerprints.push_back(r.fingerprint);
  }
  // Distinct seeds produce distinct trajectories — a sweep that collapses
  // to one fingerprint means the seed stopped reaching the simulation.
  std::sort(fingerprints.begin(), fingerprints.end());
  EXPECT_NE(fingerprints.front(), fingerprints.back());
}

}  // namespace
}  // namespace nezha
