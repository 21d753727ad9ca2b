// Chaos/invariant tests: drive the controller through randomized event
// sequences (offloads, fallbacks, scale-outs, scale-ins, crashes, heals,
// migrations) under background traffic and assert global invariants after
// every settle period. Deterministic per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/core/invariants.h"
#include "src/core/testbed.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;
using vswitch::VnicMode;

constexpr std::uint32_t kVpc = 31;
constexpr std::size_t kSwitches = 24;
constexpr int kVnics = 6;

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  ChaosTest() : bed_(make_config()) {
    for (int i = 0; i < kVnics; ++i) {
      VnicConfig v;
      v.id = static_cast<VnicId>(100 + i);
      v.addr = OverlayAddr{
          kVpc, net::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i + 1))};
      v.profile.synthetic_rule_bytes = 2 << 20;
      bed_.add_vnic(static_cast<std::size_t>(i), v);
      vnics_.push_back(v.id);
    }
    // A traffic source on a switch that hosts no managed vNIC.
    VnicConfig client;
    client.id = 1;
    client.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 9, 1, 1)};
    bed_.add_vnic(20, client);
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = kSwitches;
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    return cfg;
  }

  void pump_traffic() {
    for (int i = 0; i < kVnics; ++i) {
      net::FiveTuple ft{net::Ipv4Addr(10, 9, 1, 1),
                        net::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i + 1)),
                        static_cast<std::uint16_t>(40000 + seq_++ % 20000), 80,
                        net::IpProto::kTcp};
      bed_.vswitch(20).from_vm(
          1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0, kVpc));
    }
  }

  /// Global invariants that must hold whenever no transition is in flight.
  void check_invariants() {
    for (VnicId id : vnics_) {
      vswitch::VSwitch* home = bed_.controller().home_of(id);
      ASSERT_NE(home, nullptr);
      vswitch::Vnic* v = home->vnic(id);
      ASSERT_NE(v, nullptr) << "vnic " << id << " missing at its home";
      const auto fes = bed_.controller().fe_nodes_of(id);

      if (bed_.controller().is_offloaded(id)) {
        // Offloaded: enough healthy FEs, placement published, BE knows them.
        EXPECT_GE(fes.size(), 1u);
        for (sim::NodeId n : fes) {
          EXPECT_NE(n, home->id()) << "BE selected as its own FE";
        }
        EXPECT_EQ(v->fe_locations().size(), fes.size());
      } else {
        EXPECT_EQ(v->mode(), VnicMode::kLocal);
        EXPECT_TRUE(v->has_local_tables());
        EXPECT_TRUE(fes.empty());
      }
      // Gateway placement resolves to live locations.
      const auto* entry = bed_.gateway().lookup(v->addr());
      ASSERT_NE(entry, nullptr);
      EXPECT_FALSE(entry->placement.locations.empty());
    }
    // Memory pools never over-release.
    for (std::size_t i = 0; i < bed_.size(); ++i) {
      EXPECT_LE(bed_.vswitch(i).rule_memory().used(),
                bed_.vswitch(i).rule_memory().capacity());
      EXPECT_LE(bed_.vswitch(i).session_memory().used(),
                bed_.vswitch(i).session_memory().capacity());
    }
  }

  core::Testbed bed_;
  std::vector<VnicId> vnics_;
  std::uint32_t seq_ = 0;
};

TEST_P(ChaosTest, RandomOperationSequencePreservesInvariants) {
  common::Rng rng(GetParam());
  std::unordered_set<sim::NodeId> crashed;

  for (int round = 0; round < 30; ++round) {
    pump_traffic();
    const VnicId id = vnics_[rng.uniform_u64(0, vnics_.size() - 1)];
    switch (rng.uniform_u64(0, 5)) {
      case 0:
        (void)bed_.controller().trigger_offload(id);
        break;
      case 1:
        (void)bed_.controller().trigger_fallback(id);
        break;
      case 2:
        (void)bed_.controller().scale_out(id, 2);
        break;
      case 3: {
        const auto fes = bed_.controller().fe_nodes_of(id);
        if (!fes.empty()) {
          bed_.controller().scale_in_vswitch(
              fes[rng.uniform_u64(0, fes.size() - 1)]);
        }
        break;
      }
      case 4: {
        // Crash a random FE-hosting switch (and tell the controller, as the
        // monitor would); heal it a moment later so the pool recovers.
        const auto fes = bed_.controller().fe_nodes_of(id);
        if (!fes.empty() && crashed.empty()) {
          const sim::NodeId victim = fes[rng.uniform_u64(0, fes.size() - 1)];
          bed_.network().crash(victim);
          crashed.insert(victim);
          bed_.controller().handle_fe_crash(victim);
          bed_.loop().schedule_after(seconds(2), [this, victim, &crashed]() {
            bed_.network().heal(victim);
            crashed.erase(victim);
          });
        }
        break;
      }
      case 5: {
        // BE migration of an offloaded vNIC to a random healthy switch
        // that doesn't already host a managed vNIC.
        const std::size_t target = 6 + rng.uniform_u64(0, 10);
        if (bed_.controller().is_offloaded(id) &&
            !crashed.contains(static_cast<sim::NodeId>(target))) {
          (void)bed_.controller().migrate_backend(id, &bed_.vswitch(target));
        }
        break;
      }
    }
    // Let all in-flight workflows complete before checking invariants.
    bed_.run_for(seconds(6));
    check_invariants();
  }

  // Finally: everything still forwards traffic end to end.
  std::uint64_t delivered = 0;
  for (int i = 0; i < kVnics; ++i) {
    vswitch::VSwitch* home =
        bed_.controller().home_of(static_cast<VnicId>(100 + i));
    home->set_vm_delivery(
        [&](VnicId, const net::Packet&) { ++delivered; });
  }
  pump_traffic();
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kVnics));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull));

// ---------------------------------------------------------------------------
// Clos chaos: the same guarantees must hold when BE↔FE traffic traverses a
// leaf/spine fabric, including an FE crash landing in the middle of a
// scale-out window. The InvariantChecker runs continuously, so any transient
// inconsistency between operations (not just at settle points) is caught.

class ClosChaosTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::size_t kClosSwitches = 32;
  static constexpr int kClosVnics = 4;

  ClosChaosTest() : bed_(make_config()) {
    const std::uint32_t hosts_per_leaf =
        bed_.network().topology().config().clos.hosts_per_leaf;
    for (int i = 0; i < kClosVnics; ++i) {
      VnicConfig v;
      v.id = static_cast<VnicId>(100 + i);
      v.addr = OverlayAddr{
          kVpc, net::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i + 1))};
      v.profile.synthetic_rule_bytes = 2 << 20;
      // One managed vNIC per leaf, so FE pools and traffic cross racks.
      bed_.add_vnic(static_cast<std::size_t>(i) * hosts_per_leaf, v);
      vnics_.push_back(v.id);
    }
    VnicConfig client;
    client.id = 1;
    client.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 9, 1, 1)};
    bed_.add_vnic(kClosSwitches - 1, client);
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg =
        core::make_clos_testbed_config(kClosSwitches, /*hosts_per_leaf=*/4,
                                       /*num_spines=*/2);
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    return cfg;
  }

  void pump_traffic() {
    for (int i = 0; i < kClosVnics; ++i) {
      net::FiveTuple ft{
          net::Ipv4Addr(10, 9, 1, 1),
          net::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i + 1)),
          static_cast<std::uint16_t>(40000 + seq_++ % 20000), 80,
          net::IpProto::kTcp};
      bed_.vswitch(kClosSwitches - 1)
          .from_vm(1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0,
                                           kVpc));
    }
  }

  core::Testbed bed_;
  std::vector<VnicId> vnics_;
  std::uint32_t seq_ = 0;
};

TEST_P(ClosChaosTest, FeCrashDuringScaleOutKeepsInvariantsAndRecovers) {
  common::Rng rng(GetParam());
  core::InvariantChecker checker(
      bed_, core::InvariantCheckerConfig{.seed = GetParam()});
  checker.attach(milliseconds(25));

  // Offload every managed vNIC and let the workflows finish.
  for (VnicId id : vnics_) {
    checker.record("trigger_offload vnic=" + std::to_string(id));
    ASSERT_TRUE(bed_.controller().trigger_offload(id).ok());
  }
  pump_traffic();
  bed_.run_for(seconds(6));
  ASSERT_TRUE(checker.ok()) << checker.report();

  // Start a scale-out, then kill one of the vNIC's FEs while the new FEs'
  // rule tables are still being installed (the scale-out publish window).
  const VnicId id = vnics_[rng.uniform_u64(0, vnics_.size() - 1)];
  checker.record("scale_out vnic=" + std::to_string(id));
  ASSERT_TRUE(bed_.controller().scale_out(id, 2).ok());
  const auto fes = bed_.controller().fe_nodes_of(id);
  ASSERT_FALSE(fes.empty());
  const sim::NodeId victim = fes[rng.uniform_u64(0, fes.size() - 1)];
  bed_.loop().schedule_after(milliseconds(5), [this, victim, &checker]() {
    checker.record("crash node=" + std::to_string(victim));
    bed_.network().crash(victim);
    bed_.controller().handle_fe_crash(victim);
  });
  pump_traffic();
  bed_.run_for(seconds(6));

  // The harness stayed green through the whole crash-during-scale-out
  // window, and the controller restored a healthy offloaded pool.
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks_run(), 100u);
  EXPECT_TRUE(bed_.controller().is_offloaded(id));
  const auto recovered = bed_.controller().fe_nodes_of(id);
  EXPECT_GE(recovered.size(), 4u) << "min-FE pool not restored";
  for (sim::NodeId n : recovered) {
    EXPECT_NE(n, victim) << "crashed FE still in the pool";
  }

  // Traffic still flows end to end across the fabric.
  std::uint64_t delivered = 0;
  for (VnicId v : vnics_) {
    bed_.controller().home_of(v)->set_vm_delivery(
        [&](VnicId, const net::Packet&) { ++delivered; });
  }
  pump_traffic();
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(delivered, static_cast<std::uint64_t>(kClosVnics));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosChaosTest,
                         ::testing::Values(1ull, 4ull, 9ull));

// The placement audit catches each planted fault, and only those: a second
// copy of an offloaded vNIC, a gateway location no vSwitch owns, and a
// published vSwitch that hosts no FrontendInstance for the vNIC.
TEST(InvariantCheckerTest, ReportsPlantedPlacementFaults) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      16, /*hosts_per_leaf=*/4, /*num_spines=*/2);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);
  VnicConfig v;
  v.id = 100;
  v.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 9, 0, 1)};
  bed.add_vnic(0, v);
  ASSERT_TRUE(bed.controller().trigger_offload(v.id).ok());
  bed.run_for(seconds(6));
  ASSERT_FALSE(bed.controller().transition_pending(v.id));
  core::InvariantChecker checker(bed);
  checker.check();
  ASSERT_TRUE(checker.ok()) << checker.report();

  // Two vSwitches that are neither the home nor an FE of the vNIC.
  const auto fes = bed.controller().fe_nodes_of(v.id);
  ASSERT_FALSE(fes.empty());
  std::vector<std::size_t> idle;
  for (std::size_t i = 1; i < bed.size() && idle.size() < 2; ++i) {
    if (std::find(fes.begin(), fes.end(), bed.vswitch(i).id()) == fes.end()) {
      idle.push_back(i);
    }
  }
  ASSERT_EQ(idle.size(), 2u);
  ASSERT_TRUE(bed.vswitch(idle[0]).add_vnic(v).ok());
  bed.gateway().set_placement(
      v.addr, v.id,
      {bed.vswitch(fes.front()).location(),
       tables::Location{net::Ipv4Addr(203, 0, 113, 9), net::MacAddr{}},
       bed.vswitch(idle[1]).location()});

  checker.check();
  const std::vector<std::string>& got = checker.violations();
  ASSERT_EQ(got.size(), 3u) << checker.report();
  EXPECT_NE(got[0].find("vnic 100 exists on 2 vSwitches"), std::string::npos)
      << got[0];
  EXPECT_NE(got[1].find("vnic 100 placement names an unknown underlay address"),
            std::string::npos)
      << got[1];
  EXPECT_NE(got[2].find("node " + std::to_string(bed.vswitch(idle[1]).id()) +
                        " which hosts no FrontendInstance"),
            std::string::npos)
      << got[2];
}

}  // namespace
}  // namespace nezha
