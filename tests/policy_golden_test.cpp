// Differential gate for the FE-selection policy plumbing (DESIGN.md §14):
// with StaticHashPolicy — the default — routed through the plug-in path,
// the e2e bench scenario must reproduce both pinned golden fingerprints
// bit-for-bit:
//
//   burst config (192/64/64us windows, 100ms aging): 4585200 packets,
//     1146286 connections
//   exact timing (all windows 0, defaults):          4585995 packets,
//     1146438 connections
//
// The scenario is the golden e2e bed of support/scenarios.h, which
// bench_engine_hotpath's e2e row also runs (8 vswitches, production cost
// model, 1000-rule tenant ACL from Rng(0xe2e), two 128-concurrency CPS
// clients), driven for 4s. Any drift means the policy
// refactor perturbed the simulation — the virtual dispatch must be
// semantics-preserving, not just "close". A second differential pins that
// PushAsideDisplacementPolicy's hot path (same static modulo, displacement
// is placement-time only) is bit-identical on the same scenario.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/policy/fe_policy.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using support::E2eFingerprint;

constexpr std::uint64_t kGoldenBurstPackets = 4585200;
constexpr std::uint64_t kGoldenBurstConnections = 1146286;
constexpr std::uint64_t kGoldenExactPackets = 4585995;
constexpr std::uint64_t kGoldenExactConnections = 1146438;

E2eFingerprint run_e2e(bool bursts, policy::PolicyKind kind) {
  core::TestbedConfig cfg = support::e2e_config(bursts);
  cfg.controller.fe_policy = kind;
  support::CpsBed s = support::e2e_bed(cfg, bursts);
  EXPECT_EQ(s.bed->controller().fe_policy(), kind);
  EXPECT_EQ(s.bed->vswitch(0).fe_policy().kind(), kind);
  return support::run_e2e(s);
}

TEST(PolicyGoldenTest, StaticHashReproducesBurstGoldenFingerprint) {
  const E2eFingerprint fp = run_e2e(true, policy::PolicyKind::kStaticHash);
  EXPECT_EQ(fp.delivered, kGoldenBurstPackets);
  EXPECT_EQ(fp.completed, kGoldenBurstConnections);
}

TEST(PolicyGoldenTest, StaticHashReproducesExactGoldenFingerprint) {
  const E2eFingerprint fp = run_e2e(false, policy::PolicyKind::kStaticHash);
  EXPECT_EQ(fp.delivered, kGoldenExactPackets);
  EXPECT_EQ(fp.completed, kGoldenExactConnections);
}

// Push-aside shares the static hot path (displacement only changes
// placement decisions, and this scenario never displaces), so its run must
// be bit-identical to the golden numbers too — pinning that a policy swap
// alone cannot perturb the datapath.
TEST(PolicyGoldenTest, PushAsideHotPathMatchesBurstGoldenFingerprint) {
  const E2eFingerprint fp =
      run_e2e(true, policy::PolicyKind::kPushAsideDisplacement);
  EXPECT_EQ(fp.delivered, kGoldenBurstPackets);
  EXPECT_EQ(fp.completed, kGoldenBurstConnections);
}

}  // namespace
}  // namespace nezha
