// Churn-consistency suite for the FE-selection policy lab (DESIGN.md §14).
//
// Every policy must survive the full control-plane churn repertoire —
// scale-out, scale-in, FE crash, fleet-wide reseed, and (push-aside only)
// policy-triggered displacement — with the InvariantChecker green
// throughout and traffic still completing afterwards. Each stimulus is
// record()ed into the checker's replay ring, so a red run prints the
// (seed, stimulus trace) pair that reproduces it.
//
// Churn is applied quiescently between run_for() windows; the checker runs
// between windows too (the sharded-bed rule). A separate threaded case
// reruns the reseed churn at two worker threads and demands the identical
// fingerprint — worker count must never leak into the outcome, even across
// a mid-traffic policy stimulus (this case is in the TSan CI job's net).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/policy/fe_policy.h"
#include "src/vswitch/resources.h"
#include "src/workload/fleet_model.h"

namespace nezha {
namespace {

using policy::PolicyKind;

enum class Churn { kScaleOut, kScaleIn, kFeCrash, kReseed };

const char* to_string(Churn c) {
  switch (c) {
    case Churn::kScaleOut: return "ScaleOut";
    case Churn::kScaleIn: return "ScaleIn";
    case Churn::kFeCrash: return "FeCrash";
    case Churn::kReseed: return "Reseed";
  }
  return "?";
}

constexpr std::uint64_t kNewSeed = 0x5eedf00d;

struct ChurnRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed_before = 0;
  std::uint64_t completed_after = 0;
  tables::VnicId target = 0;
  sim::NodeId victim = 0;
  std::vector<sim::NodeId> pool_before;
  std::vector<sim::NodeId> pool_after;
  std::map<tables::VnicId, std::vector<sim::NodeId>> all_pools;
  bool churn_ok = false;
  bool seeds_uniform = false;
  std::uint64_t seed_seen = 0;
  std::uint64_t displacements = 0;
  std::size_t violations = 0;
  std::string report;
};

std::uint64_t total_completed(const workload::FleetScenario& sc) {
  std::uint64_t sum = 0;
  for (const auto& wl : sc.workloads()) sum += wl->completed();
  return sum;
}

/// One churn experiment on a 16-host, 2-shard Clos bed: offload the fleet,
/// run traffic, apply the stimulus quiescently, keep running with invariant
/// checks between every window. The whole run, setup included, executes on
/// `threads` workers; control-plane continuations run as fenced sections.
ChurnRun run_churn(PolicyKind kind, Churn churn, std::uint64_t seed,
                   int threads = 1) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      16, /*hosts_per_leaf=*/4, /*num_spines=*/4, /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  cfg.shards = 2;
  cfg.threads = threads;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = 3;
  sc.base_attempts_per_sec = 400.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  checker.record("deploy pairs=3 policy=" +
                 std::string(policy::to_string(kind)));
  scenario.offload_all();
  checker.record("offload_all");
  // Let every offload workflow (and its config-push tail) finish before
  // traffic starts; threaded runs get a longer settle for the p999 tail.
  bed.run_for(common::seconds(threads > 1 ? 3 : 1));
  checker.check();

  ChurnRun r;
  for (tables::VnicId id : bed.controller().vnic_ids()) {
    if (bed.controller().is_offloaded(id)) {
      r.target = id;
      break;
    }
  }
  EXPECT_NE(r.target, 0u) << "no offloaded vNIC to churn";
  r.pool_before = bed.controller().fe_nodes_of(r.target);

  scenario.start_traffic();
  checker.record("start_traffic");
  bed.run_for(common::milliseconds(250));
  checker.check();

  // ------------------------------------------------ the stimulus (quiescent)
  r.completed_before = total_completed(scenario);
  core::Controller& ctrl = bed.controller();
  switch (churn) {
    case Churn::kScaleOut:
      if (kind == PolicyKind::kLoadAwareWeighted) {
        // Exercise the telemetry-driven path: rank and pick with a real
        // weight book derived from the live fleet sample.
        ctrl.refresh_fleet_sample();
        ctrl.publish_fe_weights();
        checker.record("publish_fe_weights version!=0");
      }
      r.churn_ok = ctrl.scale_out(r.target, 4).ok();
      checker.record("scale_out vnic=" + std::to_string(r.target) + " +4");
      break;
    case Churn::kScaleIn:
      r.victim = r.pool_before.front();
      ctrl.scale_in_vswitch(r.victim);
      r.churn_ok = true;
      checker.record("scale_in node=" + std::to_string(r.victim));
      break;
    case Churn::kFeCrash:
      r.victim = r.pool_before.back();
      bed.network().crash(r.victim);
      checker.record("crash node=" + std::to_string(r.victim));
      ctrl.handle_fe_crash(r.victim);
      r.churn_ok = true;
      break;
    case Churn::kReseed:
      ctrl.reseed_fe_hash(kNewSeed);
      r.churn_ok = true;
      checker.record("reseed_fe_hash seed=" + std::to_string(kNewSeed));
      break;
  }

  // Post-churn traffic: mid-flight config pushes, re-learning senders and
  // rehashed flows all land inside these checked windows.
  for (int w = 0; w < 4; ++w) {
    bed.run_for(common::milliseconds(250));
    checker.check();
  }
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(500));
  checker.check();

  r.fingerprint = scenario.fingerprint();
  r.completed_after = total_completed(scenario);
  r.pool_after = bed.controller().fe_nodes_of(r.target);
  for (tables::VnicId id : bed.controller().vnic_ids()) {
    r.all_pools[id] = bed.controller().fe_nodes_of(id);
  }
  r.seeds_uniform = true;
  r.seed_seen = bed.vswitch(0).fe_hash_seed();
  for (std::size_t i = 1; i < bed.size(); ++i) {
    if (bed.vswitch(i).fe_hash_seed() != r.seed_seen) r.seeds_uniform = false;
  }
  r.displacements = ctrl.displacement_events();
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

struct ChurnCase {
  PolicyKind kind;
  Churn churn;
};

class PolicyChurnMatrixTest : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(PolicyChurnMatrixTest, SurvivesChurnWithInvariantsGreen) {
  const ChurnCase c = GetParam();
  const ChurnRun r = run_churn(c.kind, c.churn, 23);

  EXPECT_EQ(r.violations, 0u) << r.report;
  EXPECT_TRUE(r.churn_ok);
  EXPECT_GT(r.completed_after, r.completed_before)
      << "no connections completed after the churn stimulus";
  EXPECT_EQ(r.pool_before.size(), 4u);

  switch (c.churn) {
    case Churn::kScaleOut: {
      EXPECT_EQ(r.pool_after.size(), 8u);
      auto sorted = r.pool_after;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "duplicate FE node in the scaled-out pool";
      break;
    }
    case Churn::kScaleIn:
      // The evicting host leaves the pool; the controller's auto re-scale
      // restores the paper's minimum of 4 on other hosts.
      EXPECT_EQ(r.pool_after.size(), 4u);
      EXPECT_TRUE(std::find(r.pool_after.begin(), r.pool_after.end(),
                            r.victim) == r.pool_after.end())
          << "scaled-in node still in the FE pool";
      break;
    case Churn::kFeCrash:
      EXPECT_EQ(r.pool_after.size(), 4u);
      for (const auto& [id, pool] : r.all_pools) {
        EXPECT_TRUE(std::find(pool.begin(), pool.end(), r.victim) ==
                    pool.end())
            << "vnic " << id << " still routes via crashed node " << r.victim;
      }
      break;
    case Churn::kReseed:
      // §7.5: reseed is fleet-synchronous (sender and BE hashing must
      // agree) and placement-neutral — only the flow→FE mapping moves.
      EXPECT_TRUE(r.seeds_uniform);
      EXPECT_EQ(r.seed_seen, kNewSeed);
      EXPECT_EQ(r.pool_after, r.pool_before);
      break;
  }
  // Displacement never fires on this bed: the fleet has idle hosts, and
  // only the push-aside policy may displace at all.
  if (c.churn != Churn::kScaleOut ||
      c.kind != PolicyKind::kPushAsideDisplacement) {
    EXPECT_EQ(r.displacements, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyChurnMatrixTest,
    ::testing::Values(
        ChurnCase{PolicyKind::kStaticHash, Churn::kScaleOut},
        ChurnCase{PolicyKind::kStaticHash, Churn::kScaleIn},
        ChurnCase{PolicyKind::kStaticHash, Churn::kFeCrash},
        ChurnCase{PolicyKind::kStaticHash, Churn::kReseed},
        ChurnCase{PolicyKind::kLoadAwareWeighted, Churn::kScaleOut},
        ChurnCase{PolicyKind::kLoadAwareWeighted, Churn::kScaleIn},
        ChurnCase{PolicyKind::kLoadAwareWeighted, Churn::kFeCrash},
        ChurnCase{PolicyKind::kLoadAwareWeighted, Churn::kReseed},
        ChurnCase{PolicyKind::kPushAsideDisplacement, Churn::kScaleOut},
        ChurnCase{PolicyKind::kPushAsideDisplacement, Churn::kScaleIn},
        ChurnCase{PolicyKind::kPushAsideDisplacement, Churn::kFeCrash},
        ChurnCase{PolicyKind::kPushAsideDisplacement, Churn::kReseed}),
    [](const auto& info) {
      return std::string(policy::to_string(info.param.kind)) + "_" +
             to_string(info.param.churn);
    });

// Churn runs are replayable: the same (config, seed, stimulus) sequence
// reproduces the fingerprint and the final pools bit-for-bit. The crash
// stimulus is the harshest (placement rewrite + min-FE re-scale mid-run).
class PolicyChurnReplayTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyChurnReplayTest, CrashChurnReproducesBitForBit) {
  const ChurnRun a = run_churn(GetParam(), Churn::kFeCrash, 23);
  const ChurnRun b = run_churn(GetParam(), Churn::kFeCrash, 23);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.all_pools, b.all_pools);
  EXPECT_EQ(a.completed_after, b.completed_after);
  EXPECT_EQ(a.violations, 0u) << a.report;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyChurnReplayTest,
    ::testing::Values(PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted,
                      PolicyKind::kPushAsideDisplacement),
    [](const auto& info) { return policy::to_string(info.param); });

// Worker threads must not change a churned run's outcome: the reseed run
// at 2 workers, setup included, must match the 1-worker run. This case
// runs under TSan in CI.
TEST(PolicyChurnThreadedTest, ReseedOutcomeIsThreadInvariant) {
  for (PolicyKind kind :
       {PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted}) {
    const ChurnRun one = run_churn(kind, Churn::kReseed, 23, 1);
    const ChurnRun two = run_churn(kind, Churn::kReseed, 23, 2);
    EXPECT_EQ(one.fingerprint, two.fingerprint)
        << policy::to_string(kind)
        << ": thread count leaked into a churned run";
    EXPECT_EQ(one.completed_after, two.completed_after);
    EXPECT_EQ(two.violations, 0u) << two.report;
    EXPECT_TRUE(two.seeds_uniform);
  }
}

// ---------------------------------------------------------------------------
// Policy-triggered displacement, on a deliberately saturated mini-cluster.
//
// Seven flat hosts, single-core low-clock CPUs so real traffic makes hosts
// genuinely busy (the controller's utilization samples — not a test seam —
// drive both the idle filter and the victim choice):
//
//   node 1: vNIC B's BE (saturated by FE-forwarded noise)
//   nodes 0, 2: B's two FEs (busy: ~half the noise each)
//   nodes 3, 4: noise clients (busy: local_tx at CPU capacity)
//   node 5: vNIC A's BE,  node 6: A's probe client (idle)
//
// When A asks for a 2-FE pool, exactly one idle host (node 6) exists.
// Push-aside displaces one of B's FEs (B's pool stays >= min_fes = 1) and
// the offload succeeds; the other policies must fail the offload cleanly —
// no displacement, no partial pool, B untouched, A still serving locally.
class PolicyChurnDisplacementTest
    : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(PolicyChurnDisplacementTest, SaturatedPoolDisplacesOnlyUnderPushAside) {
  const PolicyKind kind = GetParam();
  constexpr std::uint32_t kVpc = 7;

  core::TestbedConfig cfg;
  cfg.num_vswitches = 7;
  cfg.vswitch.cpu.cores = 1;
  cfg.vswitch.cpu.hz_per_core = 1.2e7;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  cfg.controller.min_fes = 1;  // scaled-down cluster: pools of 1-2 FEs
  core::Testbed bed(cfg);
  core::InvariantChecker checker(bed, core::InvariantCheckerConfig{.seed = 7});

  auto add = [&](std::size_t node, tables::VnicId id, std::uint8_t subnet,
                 std::uint8_t host) {
    vswitch::VnicConfig v;
    v.id = id;
    v.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, subnet, host)};
    bed.add_vnic(node, v);
    return v.addr.ip;
  };
  const net::Ipv4Addr b_ip = add(1, 200, 0, 200);
  const net::Ipv4Addr a_ip = add(5, 100, 0, 100);
  const net::Ipv4Addr noise1_ip = add(3, 201, 1, 1);
  const net::Ipv4Addr noise2_ip = add(4, 202, 1, 2);
  const net::Ipv4Addr probe_ip = add(6, 1, 1, 9);

  ASSERT_TRUE(bed.controller().trigger_offload(200, 2).ok());
  checker.record("trigger_offload vnic=200 fes=2");
  bed.run_for(common::seconds(2));
  checker.check();
  const std::vector<sim::NodeId> b_pool0 = bed.controller().fe_nodes_of(200);
  ASSERT_EQ(b_pool0, (std::vector<sim::NodeId>{0, 2}));

  // Noise: two clients, 24 UDP flows each, pumped at the clients' CPU
  // capacity (the CPU model sheds the excess) → both FE hosts sample busy.
  auto pump = [&bed](tables::VnicId vnic, std::size_t node,
                     net::Ipv4Addr src, net::Ipv4Addr dst, int flows,
                     std::uint16_t base_port, common::Duration period) {
    bed.loop().schedule_periodic(period, [&bed, vnic, node, src, dst, flows,
                                          base_port]() {
      for (int f = 0; f < flows; ++f) {
        const net::FiveTuple ft{src, dst,
                                static_cast<std::uint16_t>(base_port + f), 80,
                                net::IpProto::kUdp};
        bed.vswitch(node).from_vm(vnic, net::make_udp_packet(ft, 200, kVpc));
      }
    });
  };
  pump(201, 3, noise1_ip, b_ip, 24, 20000, common::milliseconds(1));
  pump(202, 4, noise2_ip, b_ip, 24, 21000, common::milliseconds(1));

  // Probe flows to A (still local mode — the churn under test is A's
  // offload attempt itself).
  constexpr int kProbeFlows = 16;
  std::map<std::uint16_t, std::uint64_t> probe_delivered;
  bed.vswitch(5).set_vm_delivery(
      100, [&probe_delivered](tables::VnicId, const net::Packet& p) {
        ++probe_delivered[p.inner.ft.src_port];
      });
  pump(1, 6, probe_ip, a_ip, kProbeFlows, 30000, common::milliseconds(10));

  // Sample utilization over the loaded window only: a sampler measures
  // [last checkpoint, now), so both the test's samplers and the
  // controller's fleet samplers checkpoint at noise start — otherwise the
  // idle setup seconds dilute the busy window below the threshold.
  bed.controller().refresh_fleet_sample();
  std::vector<vswitch::UtilizationSampler> samplers(bed.size());
  for (std::size_t i = 0; i < bed.size(); ++i) {
    samplers[i].sample(bed.vswitch(i).cpu(), bed.loop().now());
  }
  bed.run_for(common::milliseconds(400));
  checker.check();
  bed.controller().refresh_fleet_sample();
  checker.record("refresh_fleet_sample");
  for (sim::NodeId fe : {sim::NodeId{0}, sim::NodeId{2}}) {
    const double util = samplers[fe].sample(bed.vswitch(fe).cpu(),
                                            bed.loop().now());
    EXPECT_GE(util, bed.controller().config().scale_threshold)
        << "FE host " << fe << " did not sample busy — the displacement "
        << "scenario's noise calibration has rotted";
  }

  // ------------------------------------------------------------- the churn
  const common::Status st = bed.controller().trigger_offload(100, 2);
  checker.record("trigger_offload vnic=100 fes=2 -> " +
                 std::string(st.ok() ? "ok" : "refused"));
  for (int w = 0; w < 8; ++w) {
    bed.run_for(common::milliseconds(250));
    checker.check();
  }

  const auto a_pool = bed.controller().fe_nodes_of(100);
  const auto b_pool = bed.controller().fe_nodes_of(200);
  const std::uint64_t displaced = bed.controller().displacement_events();

  if (kind == PolicyKind::kPushAsideDisplacement) {
    EXPECT_TRUE(st.ok()) << "push-aside should displace its way to a pool";
    EXPECT_EQ(displaced, 1u);
    EXPECT_EQ(a_pool.size(), 2u);
    // One FE on the lone idle host, one pushed out of B's busy pair.
    EXPECT_TRUE(std::find(a_pool.begin(), a_pool.end(), 6u) != a_pool.end());
    EXPECT_EQ(b_pool.size(), 1u);  // donor kept >= min_fes
    EXPECT_TRUE(bed.controller().is_offloaded(100));
  } else {
    EXPECT_FALSE(st.ok()) << policy::to_string(kind)
                          << " must refuse, not displace";
    EXPECT_EQ(displaced, 0u);
    EXPECT_TRUE(a_pool.empty());
    EXPECT_EQ(b_pool, b_pool0) << "a refused offload touched B's pool";
    EXPECT_FALSE(bed.controller().is_offloaded(100));
  }

  // Liveness either way: every probe flow still reaches A in a fresh
  // window (offloaded detour for push-aside, local path for the rest).
  std::map<std::uint16_t, std::uint64_t> snapshot = probe_delivered;
  bed.run_for(common::milliseconds(400));
  checker.check();
  for (int f = 0; f < kProbeFlows; ++f) {
    const std::uint16_t port = static_cast<std::uint16_t>(30000 + f);
    EXPECT_GT(probe_delivered[port], snapshot[port])
        << "probe flow on port " << port << " blackholed after the churn";
  }
  EXPECT_EQ(checker.violations().size(), 0u) << checker.report();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyChurnDisplacementTest,
    ::testing::Values(PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted,
                      PolicyKind::kPushAsideDisplacement),
    [](const auto& info) { return policy::to_string(info.param); });

}  // namespace
}  // namespace nezha
