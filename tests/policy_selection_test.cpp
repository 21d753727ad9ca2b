// Selection-determinism properties of the FE policy lab (DESIGN.md §14).
//
// Contract under test: every policy's pick() is a pure function of
// (tuple, FE list, seed, weight book) — same inputs, same FE, always —
// and at bed level the same (config, seed, gauge snapshot) yields the
// identical FE choice across two runs and across shard/thread counts, for
// all three policies. Plus the unit properties each implementation leans
// on: StaticHashPolicy is exactly flow_hash % n (the pre-policy code),
// weighted rendezvous moves only the removed FE's flows and honors the
// weight book, and one-pass placement orders hosts exactly as a full sort
// under the documented comparators does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/policy/fe_policy.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using policy::FeWeightBook;
using policy::PlacementKey;
using policy::PolicyKind;

net::FiveTuple random_tuple(common::Rng& rng) {
  return net::FiveTuple{
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)),
      static_cast<std::uint16_t>(rng.uniform_u64(1, 1024)),
      rng.chance(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp};
}

std::vector<tables::Location> make_fes(std::size_t n) {
  std::vector<tables::Location> fes;
  for (std::size_t i = 0; i < n; ++i) {
    fes.push_back(tables::Location{
        net::Ipv4Addr(10, 200, 0, static_cast<std::uint8_t>(i + 1)),
        net::MacAddr{{0, 1, 2, 3, 4, static_cast<std::uint8_t>(i + 1)}}});
  }
  return fes;
}

std::unique_ptr<policy::FeSelectionPolicy> make_local(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLoadAwareWeighted:
      return std::make_unique<policy::LoadAwareWeightedPolicy>();
    case PolicyKind::kPushAsideDisplacement:
      return std::make_unique<policy::PushAsideDisplacementPolicy>();
    case PolicyKind::kStaticHash: break;
  }
  return std::make_unique<policy::StaticHashPolicy>();
}

class PolicyPickTest : public ::testing::TestWithParam<PolicyKind> {};

// Same (tuple, list, seed, book) → same index, across repeated calls, the
// shared singleton, and a freshly constructed instance (policies are
// stateless by contract).
TEST_P(PolicyPickTest, PickIsAPureFunction) {
  const auto& p = policy::policy_for(GetParam());
  const auto local = make_local(GetParam());
  const auto fes = make_fes(5);
  FeWeightBook book;
  book.set(fes[1].ip, 3);
  book.set(fes[3].ip, 61);
  common::Rng rng(0xda7a);
  for (int i = 0; i < 2000; ++i) {
    const net::FiveTuple ft = random_tuple(rng);
    const std::uint64_t seed = rng.next();
    const std::size_t a = p.pick(ft, fes.data(), fes.size(), seed, book);
    const std::size_t b = p.pick(ft, fes.data(), fes.size(), seed, book);
    const std::size_t c = local->pick(ft, fes.data(), fes.size(), seed, book);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    ASSERT_LT(a, fes.size());
  }
}

TEST_P(PolicyPickTest, PickStaysInRangeForEveryPoolSize) {
  const auto& p = policy::policy_for(GetParam());
  FeWeightBook book;
  common::Rng rng(7);
  for (std::size_t n = 1; n <= 8; ++n) {
    const auto fes = make_fes(n);
    for (int i = 0; i < 200; ++i) {
      const std::size_t idx =
          p.pick(random_tuple(rng), fes.data(), n, rng.next(), book);
      ASSERT_LT(idx, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyPickTest,
    ::testing::Values(PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted,
                      PolicyKind::kPushAsideDisplacement),
    [](const auto& info) { return policy::to_string(info.param); });

// The default policy is bit-for-bit the pre-policy inline code: pick ==
// flow_hash(tuple, seed) % n. The golden-fingerprint gates depend on it.
TEST(PolicySelectionTest, StaticHashMatchesLegacyModulo) {
  const auto& p = policy::policy_for(PolicyKind::kStaticHash);
  const auto fes = make_fes(4);
  FeWeightBook book;
  common::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const net::FiveTuple ft = random_tuple(rng);
    const std::uint64_t seed = rng.next();
    EXPECT_EQ(p.pick(ft, fes.data(), fes.size(), seed, book),
              net::flow_hash(ft, seed) % fes.size());
  }
}

// Rendezvous hashing's defining property: removing one FE remaps only the
// flows that FE served; every other flow keeps its choice (compare by IP,
// since indexes shift after the removal).
TEST(PolicySelectionTest, RendezvousRemovalMovesOnlyTheRemovedFesFlows) {
  const auto& p = policy::policy_for(PolicyKind::kLoadAwareWeighted);
  const auto fes = make_fes(5);
  auto shrunk = fes;
  const tables::Location removed = shrunk[2];
  shrunk.erase(shrunk.begin() + 2);
  FeWeightBook book;
  common::Rng rng(13);
  int moved = 0;
  for (int i = 0; i < 2000; ++i) {
    const net::FiveTuple ft = random_tuple(rng);
    const auto before = fes[p.pick(ft, fes.data(), fes.size(), 99, book)];
    const auto after =
        shrunk[p.pick(ft, shrunk.data(), shrunk.size(), 99, book)];
    if (before.ip.value() == removed.ip.value()) {
      ++moved;
    } else {
      ASSERT_EQ(before.ip.value(), after.ip.value());
    }
  }
  EXPECT_GT(moved, 0);  // the removed FE did serve some flows
}

// A weight-1 FE among weight-64 peers should serve (close to) 1/(1+64*4)
// of the flows; an all-equal book spreads roughly uniformly.
TEST(PolicySelectionTest, RendezvousHonorsTheWeightBook) {
  const auto& p = policy::policy_for(PolicyKind::kLoadAwareWeighted);
  const auto fes = make_fes(5);
  FeWeightBook heavy;
  for (const auto& fe : fes) heavy.set(fe.ip, 64);
  heavy.set(fes[0].ip, 1);
  FeWeightBook uniform;
  common::Rng rng(17);
  int cold = 0;
  std::vector<int> share(fes.size(), 0);
  const int kFlows = 4000;
  for (int i = 0; i < kFlows; ++i) {
    const net::FiveTuple ft = random_tuple(rng);
    if (p.pick(ft, fes.data(), fes.size(), 5, heavy) == 0) ++cold;
    ++share[p.pick(ft, fes.data(), fes.size(), 5, uniform)];
  }
  // Weighted rendezvous with score = weight * U32 gives the weight-1 FE a
  // tiny share (argmax of one low-scaled draw vs four full ones).
  EXPECT_LT(cold, kFlows / 20);
  for (std::size_t i = 0; i < fes.size(); ++i) {
    EXPECT_GT(share[i], kFlows / 10) << "FE " << i << " starved";
    EXPECT_LT(share[i], kFlows / 2) << "FE " << i << " overloaded";
  }
}

// The reference placement: a vector of every eligible host, fully sorted
// by one of the comparators below.
struct Candidate {
  std::uint32_t node = 0;
  int tier = 0;
  double cpu_util = 0.0;
  double queue_bytes = 0.0;
};

// The reference comparators: the default (App B.1: same ToR, then
// least-loaded, then node id) and load-aware's, whose load folds the port
// backlog into CPU, each saturating at 1.
bool default_less(const Candidate& a, const Candidate& b) {
  if (a.tier != b.tier) return a.tier < b.tier;
  if (a.cpu_util != b.cpu_util) return a.cpu_util < b.cpu_util;
  return a.node < b.node;
}
double reference_load_score(const Candidate& c) {
  const double queue = c.queue_bytes / policy::kQueueNormBytes;
  return std::min(1.0, c.cpu_util) + std::min(1.0, queue);
}
bool load_aware_less(const Candidate& a, const Candidate& b) {
  if (a.tier != b.tier) return a.tier < b.tier;
  const double la = reference_load_score(a);
  const double lb = reference_load_score(b);
  if (la != lb) return la < lb;
  return a.node < b.node;
}

// Tie-heavy candidate set: few tiers, few CPU levels and several queue
// levels, so most comparisons fall through to the node-id tie-break.
std::vector<Candidate> tied_candidates(std::size_t n) {
  common::Rng rng(19);
  std::vector<Candidate> cands;
  for (std::uint32_t i = 0; i < n; ++i) {
    cands.push_back(Candidate{
        i, static_cast<int>(rng.uniform_u64(0, 2)),
        static_cast<double>(rng.uniform_u64(0, 4)) * 0.1,
        static_cast<double>(rng.uniform_u64(0, 4)) * 0.75e6});
  }
  return cands;
}

// The nodes one pass keeps when it offers every candidate's key, in
// candidate order, to a shortlist of `k`.
std::vector<std::uint32_t> one_pass(PolicyKind kind,
                                    const std::vector<Candidate>& cands,
                                    std::size_t k) {
  const policy::LoadKey load_key = policy::policy_for(kind).load_key();
  policy::Shortlist best(k);
  for (const Candidate& c : cands) {
    const PlacementKey key{c.tier, c.node,
                           load_key(c.cpu_util, c.queue_bytes)};
    if (best.admits(key)) best.take(key);
  }
  std::vector<std::uint32_t> nodes;
  for (const PlacementKey& key : best.best()) nodes.push_back(key.node);
  return nodes;
}

// The first min(k, n) nodes of a full sort by `less`.
template <typename Less>
std::vector<std::uint32_t> sorted_prefix(std::vector<Candidate> cands,
                                         std::size_t k, Less less) {
  std::sort(cands.begin(), cands.end(), less);
  std::vector<std::uint32_t> nodes;
  for (std::size_t i = 0; i < std::min(k, cands.size()); ++i) {
    nodes.push_back(cands[i].node);
  }
  return nodes;
}

// One pass keeps the best min(k, n) candidates in the order a full sort by
// `less` gives them. k runs over none, one, a default pool, and the edges
// around n.
template <typename Less>
void expect_one_pass_prefix(PolicyKind kind,
                            const std::vector<Candidate>& cands, Less less) {
  const std::size_t n = cands.size();
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{4}, n - 1,
                        n, n + 3}) {
    SCOPED_TRACE(std::string(policy::to_string(kind)) +
                 " k=" + std::to_string(k));
    EXPECT_EQ(one_pass(kind, cands, k), sorted_prefix(cands, k, less));
  }
}

// The default key (static + push-aside) must order exactly like the
// pre-policy Controller::select_frontends comparator, and reads no port.
TEST(PolicySelectionTest, DefaultRankMatchesLegacyComparator) {
  const auto cands = tied_candidates(40);
  for (PolicyKind kind :
       {PolicyKind::kStaticHash, PolicyKind::kPushAsideDisplacement}) {
    EXPECT_FALSE(policy::policy_for(kind).load_key().backlog);
    expect_one_pass_prefix(kind, cands, default_less);
  }
}

// Load-aware ranking folds port backlog into the load key: an idle-CPU
// host with a saturated egress port ranks behind a moderately busy host
// with an empty queue (same tier).
TEST(PolicySelectionTest, LoadAwareRankFoldsQueueBacklog) {
  const std::vector<Candidate> cands{
      Candidate{1, 0, 0.1, 3e6},  // queue-saturated
      Candidate{2, 0, 0.3, 0.0}};
  EXPECT_EQ(one_pass(PolicyKind::kLoadAwareWeighted, cands, 2),
            (std::vector<std::uint32_t>{2, 1}));
  EXPECT_TRUE(
      policy::policy_for(PolicyKind::kLoadAwareWeighted).load_key().backlog);

  expect_one_pass_prefix(PolicyKind::kLoadAwareWeighted, tied_candidates(40),
                         load_aware_less);
}

// Placement on random fleets, Clos and tiered: every host but the home
// and the crashed, excluded and busy ones is a candidate, at its
// Topology::hop_tier from the home, with the CPU the controller sampled
// (drawn from a few levels, so ties are common) and its port backlog. The
// controller's one pass over its dense host array must pick exactly the
// hosts, in exactly the order, of a full sort of that candidate vector.
// The pass is observed through scale_out, which appends its picks to the
// pool in order, excludes the pool and the extra hosts given, and installs
// a short pick as it is. Returns how many hosts it picked and how many
// candidates share their CPU with another.
struct CaseStats {
  std::size_t picked = 0;
  std::size_t cpu_ties = 0;
};
CaseStats placement_case(bool clos, PolicyKind kind, std::size_t count_pick,
                         std::uint64_t seed) {
  common::Rng rng(seed);
  const std::size_t n = rng.uniform_u64(12, 40);
  core::TestbedConfig cfg;
  if (clos) {
    cfg = core::make_clos_testbed_config(n, /*hosts_per_leaf=*/4,
                                         /*num_spines=*/2);
  } else {
    cfg.num_vswitches = n;
    cfg.topology.servers_per_tor = 4;
    cfg.topology.tors_per_agg = 2;
  }
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  core::Testbed bed(cfg);
  const auto home = static_cast<sim::NodeId>(rng.uniform_u64(0, n - 1));
  vswitch::VnicConfig v;
  v.id = 7;
  v.addr = tables::OverlayAddr{5, net::Ipv4Addr(10, 0, 0, 7)};
  bed.add_vnic(home, v);
  EXPECT_TRUE(bed.controller().trigger_offload(7).ok());

  // CPU: busy for a share of the next 3 s drawn from five levels, the
  // last above the 0.40 busy threshold.
  const common::Duration window = common::seconds(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double share = 0.1 * static_cast<double>(rng.uniform_u64(0, 3)) +
                         (rng.chance(0.15) ? 0.5 : 0.0);
    vswitch::CpuModel& cpu = bed.vswitch(i).cpu();
    cpu.consume(share * common::to_seconds(window) * cpu.cycles_per_second(),
                bed.loop().now());
  }
  bed.run_for(window);
  EXPECT_TRUE(bed.controller().is_offloaded(7));
  bed.controller().refresh_fleet_sample();

  // Port backlogs of 0 to 48 jumbo frames (up to ~2 kQueueNormBytes), then
  // crashes and the extra exclusions.
  const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                          net::Ipv4Addr(10, 0, 0, 2), 1000, 80,
                          net::IpProto::kUdp};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t frames = 12 * rng.uniform_u64(0, 4);
    for (std::uint64_t f = 0; f < frames; ++f) {
      bed.network().send(static_cast<sim::NodeId>(i),
                         bed.vswitch(home).underlay_ip(),
                         net::make_udp_packet(ft, 60000));
    }
  }
  std::vector<sim::NodeId> extra;
  for (sim::NodeId i = 0; i < n; ++i) {
    if (rng.chance(0.1)) bed.network().crash(i);
    if (rng.chance(0.1)) extra.push_back(i);
  }

  const std::vector<sim::NodeId> pool = bed.controller().fe_nodes_of(7);
  std::vector<Candidate> cands;
  for (sim::NodeId i = 0; i < n; ++i) {
    vswitch::UtilizationSampler sampler;  // the controller's first sample
    const double cpu = sampler.sample(bed.vswitch(i).cpu(), bed.loop().now());
    if (i == home || bed.network().crashed(i) ||
        std::find(pool.begin(), pool.end(), i) != pool.end() ||
        std::find(extra.begin(), extra.end(), i) != extra.end() ||
        cpu >= cfg.controller.scale_threshold) {
      continue;
    }
    cands.push_back(Candidate{
        i, bed.network().topology().hop_tier(home, i), cpu,
        static_cast<double>(bed.network().port_queued_bytes(i))});
  }
  const std::size_t count =
      std::vector<std::size_t>{0, 1, 4, n - 1, n, n + 3}[count_pick];
  const std::vector<std::uint32_t> expected =
      kind == PolicyKind::kLoadAwareWeighted
          ? sorted_prefix(cands, count, load_aware_less)
          : sorted_prefix(cands, count, default_less);

  (void)bed.controller().scale_out(7, count, extra);
  const std::vector<sim::NodeId> grown = bed.controller().fe_nodes_of(7);
  EXPECT_EQ(std::vector<sim::NodeId>(grown.begin(), grown.begin() +
                                                        static_cast<long>(
                                                            pool.size())),
            pool);
  const std::vector<std::uint32_t> picked(
      grown.begin() + static_cast<long>(pool.size()), grown.end());
  EXPECT_EQ(picked, expected);

  CaseStats stats;
  stats.picked = picked.size();
  for (const Candidate& a : cands) {
    for (const Candidate& b : cands) {
      if (a.node != b.node && a.cpu_util == b.cpu_util) {
        ++stats.cpu_ties;
        break;
      }
    }
  }
  return stats;
}

TEST(PlacementPropertyTest, OnePassEqualsAFullSortOfTheCandidates) {
  CaseStats total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (bool clos : {false, true}) {
      for (PolicyKind kind :
           {PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted}) {
        for (std::size_t count_pick = 0; count_pick < 6; ++count_pick) {
          SCOPED_TRACE(std::string(clos ? "clos " : "tiered ") +
                       policy::to_string(kind) + " seed " +
                       std::to_string(seed) + " count pick " +
                       std::to_string(count_pick));
          const CaseStats stats =
              placement_case(clos, kind, count_pick, seed);
          total.picked += stats.picked;
          total.cpu_ties += stats.cpu_ties;
        }
      }
    }
  }
  EXPECT_GT(total.picked, 0u);
  EXPECT_GT(total.cpu_ties, 0u);
}

// ---------------------------------------------------------------- bed level

struct BedRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::map<tables::VnicId, std::vector<sim::NodeId>> pools;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::string report;
};

/// Clos fleet with every server vNIC offloaded under `kind`; the whole
/// run, setup included, executes on `threads` workers. The outcome must be
/// a pure function of (config, seed, shards) — never of `threads`.
BedRun run_fleet(PolicyKind kind, std::size_t shards, int threads,
                 std::uint64_t seed) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      32, /*hosts_per_leaf=*/4, /*num_spines=*/4, /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  cfg.shards = shards;
  cfg.threads = threads;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = 4;
  sc.base_attempts_per_sec = 300.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = seed});

  scenario.deploy();
  scenario.offload_all();
  bed.run_for(common::seconds(1));
  checker.check();

  scenario.start_traffic();
  for (int slice = 0; slice < 4; ++slice) {
    bed.run_for(common::milliseconds(250));
    checker.check();
  }
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(250));
  checker.check();

  BedRun r;
  r.fingerprint = scenario.fingerprint();
  for (const auto& wl : scenario.workloads()) r.completed += wl->completed();
  for (tables::VnicId id : bed.controller().vnic_ids()) {
    r.pools[id] = bed.controller().fe_nodes_of(id);
  }
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

class PolicyBedDeterminismTest : public ::testing::TestWithParam<PolicyKind> {
};

TEST_P(PolicyBedDeterminismTest, TwoRunsReproduceBitForBit) {
  const BedRun a = run_fleet(GetParam(), 2, 1, 23);
  const BedRun b = run_fleet(GetParam(), 2, 1, 23);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.pools, b.pools);
  EXPECT_EQ(a.violations, 0u) << a.report;
  EXPECT_GT(a.completed, 50u);
  EXPECT_EQ(a.stalled_pairs, 0u);
}

TEST_P(PolicyBedDeterminismTest, ThreadCountNeverChangesTheOutcome) {
  const BedRun one = run_fleet(GetParam(), 2, 1, 23);
  const BedRun two = run_fleet(GetParam(), 2, 2, 23);
  EXPECT_EQ(one.fingerprint, two.fingerprint)
      << policy::to_string(GetParam())
      << ": a worker-thread count leaked into the simulation result";
  EXPECT_EQ(one.pools, two.pools);
  EXPECT_EQ(two.violations, 0u) << two.report;
  EXPECT_EQ(one.stalled_pairs, 0u);
  EXPECT_EQ(two.stalled_pairs, 0u);
}

// Placement is controller logic, independent of how the simulation is
// sharded: the FE pools chosen for every vNIC must agree between a 1-shard
// and a 2-shard bed (traffic fingerprints may differ across shard counts;
// FE choice may not — pick() inputs are identical, so the unit-level
// purity tests extend the guarantee to the per-flow choice).
TEST_P(PolicyBedDeterminismTest, FePoolsAgreeAcrossShardCounts) {
  const BedRun one = run_fleet(GetParam(), 1, 1, 23);
  const BedRun two = run_fleet(GetParam(), 2, 1, 23);
  EXPECT_EQ(one.pools, two.pools) << policy::to_string(GetParam());
  EXPECT_EQ(one.violations, 0u) << one.report;
  EXPECT_EQ(one.stalled_pairs, 0u);
  EXPECT_EQ(two.stalled_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyBedDeterminismTest,
    ::testing::Values(PolicyKind::kStaticHash, PolicyKind::kLoadAwareWeighted,
                      PolicyKind::kPushAsideDisplacement),
    [](const auto& info) { return policy::to_string(info.param); });

}  // namespace
}  // namespace nezha
