// Tests for the baselines: analytic capacity model (Fig 9's shapes) and
// the Sirius bucket/replication model.
#include <gtest/gtest.h>

#include "src/baseline/capacity_model.h"
#include "src/baseline/sirius_model.h"
#include "src/common/rng.h"

namespace nezha::baseline {
namespace {

TEST(CapacityModelTest, NezhaCpsPlateausAtVmKernel) {
  DeploymentParams p;
  const double base = CapacityModel::local_cps(p);
  double prev = base;
  bool plateaued = false;
  for (std::size_t fes = 1; fes <= 16; ++fes) {
    const double cps = CapacityModel::nezha_cps(p, fes);
    EXPECT_GE(cps + 1e-9, prev);
    if (cps == prev && fes > 2) plateaued = true;
    prev = cps;
  }
  EXPECT_TRUE(plateaued);
  // Fig 9: the plateau sits around 3.3x of the local baseline.
  const double gain = CapacityModel::nezha_cps(p, 8) / base;
  EXPECT_GT(gain, 2.5);
  EXPECT_LT(gain, 4.5);
}

TEST(CapacityModelTest, FlowGainFeBoundThenBeBound) {
  DeploymentParams p;
  const auto base = CapacityModel::local_max_flows(p);
  // Below the knee, adding FEs adds flow capacity linearly.
  const auto one = CapacityModel::nezha_max_flows(p, 1);
  const auto two = CapacityModel::nezha_max_flows(p, 2);
  EXPECT_EQ(two, 2 * one);
  // Above ~4 FEs the BE state memory binds: the gain stops growing.
  const auto four = CapacityModel::nezha_max_flows(p, 4);
  const auto eight = CapacityModel::nezha_max_flows(p, 8);
  EXPECT_EQ(four, eight);
  const double gain = static_cast<double>(eight) / static_cast<double>(base);
  // Fig 9: ≈3.8x.
  EXPECT_GT(gain, 3.0);
  EXPECT_LT(gain, 5.0);
}

TEST(CapacityModelTest, VnicGainProportionalUntilMetadataBound) {
  DeploymentParams p;
  const auto base = CapacityModel::local_max_vnics(p);
  const auto g1 = CapacityModel::nezha_max_vnics(p, 1);
  const auto g2 = CapacityModel::nezha_max_vnics(p, 2);
  const auto g4 = CapacityModel::nezha_max_vnics(p, 4);
  EXPECT_EQ(g2, 2 * g1);
  EXPECT_EQ(g4, 4 * g1);
  EXPECT_GT(g1, base);  // even one idle FE beats the starved local pool
  // The BE metadata bound (2KB per vNIC over the freed memory) caps the
  // growth far out — consistent with the paper's theoretical 1000x
  // (rule table bytes / 2KB). With enough FEs, that bound binds.
  const auto be_bound =
      (p.local_rule_free_bytes + p.freed_rule_bytes) / kBeMetadataBytes;
  const auto cap = CapacityModel::nezha_max_vnics(p, 100000);
  EXPECT_EQ(cap, be_bound);
  // And the theoretical per-vNIC ratio matches §6.2.1's 1000x arithmetic:
  // a 2MB rule table vs 2KB BE metadata.
  EXPECT_EQ((2u << 20) / kBeMetadataBytes, 1024u);
}

TEST(CapacityModelTest, SiriusReplicationHalvesCps) {
  EXPECT_DOUBLE_EQ(CapacityModel::sirius_cps(100000, 4), 200000.0);
  DeploymentParams p;
  // For equal per-node capacity and enough nodes, Nezha's active-active
  // pool beats Sirius' ping-pong pool until the VM kernel binds.
  const double per_node_cps = kVswitchCyclesPerSec / kConnCyclesFe;
  EXPECT_GT(CapacityModel::nezha_cps(p, 2),
            CapacityModel::sirius_cps(per_node_cps, 2));
}

net::FiveTuple tuple(std::uint16_t port) {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        port, 80, net::IpProto::kTcp};
}

TEST(SiriusModelTest, BucketsCoverCards) {
  SiriusModel sirius(4, 64);
  std::vector<bool> seen(4, false);
  for (std::uint16_t port = 1000; port < 2000; ++port) {
    seen[sirius.card_of(tuple(port))] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SiriusModelTest, RebalanceMovesOnlyNewAndLongLivedFlows) {
  SiriusModel sirius(2, 8);
  common::Rng rng(3);
  std::vector<net::FiveTuple> short_flows, long_flows;
  for (std::uint16_t port = 1000; port < 1200; ++port) {
    const bool long_lived = (port % 4 == 0);
    sirius.flow_started(tuple(port), long_lived);
    (long_lived ? long_flows : short_flows).push_back(tuple(port));
  }
  // Capture short flows' card assignments before the move.
  std::vector<std::size_t> before;
  for (const auto& ft : short_flows) before.push_back(sirius.card_of(ft));

  const std::size_t transfers = sirius.rebalance(2);
  // Long-lived flows in moved buckets paid a state transfer.
  EXPECT_GT(transfers, 0u);
  EXPECT_EQ(sirius.state_transfers(), transfers);
  // Existing short flows stay pinned to their original card (minimal state
  // transfer — the Sirius design point).
  for (std::size_t i = 0; i < short_flows.size(); ++i) {
    EXPECT_EQ(sirius.card_of(short_flows[i]), before[i]);
  }
}

TEST(SiriusModelTest, RebalanceReducesImbalance) {
  SiriusModel sirius(4, 64);
  for (std::uint16_t port = 1000; port < 3000; ++port) {
    sirius.flow_started(tuple(port), false);
  }
  auto loads = sirius.card_loads();
  const auto max_before = *std::max_element(loads.begin(), loads.end());
  const auto min_before = *std::min_element(loads.begin(), loads.end());
  sirius.rebalance(4);
  // New flows after the rebalance land on the reassigned buckets.
  for (std::uint16_t port = 3000; port < 5000; ++port) {
    sirius.flow_started(tuple(port), false);
  }
  loads = sirius.card_loads();
  const auto max_after = *std::max_element(loads.begin(), loads.end());
  const auto min_after = *std::min_element(loads.begin(), loads.end());
  EXPECT_LT(static_cast<double>(max_after) / std::max<std::size_t>(1, min_after),
            static_cast<double>(max_before) / std::max<std::size_t>(1, min_before) +
                0.5);
}

TEST(SiriusModelTest, FinishedFlowsReleaseState) {
  SiriusModel sirius(2, 8);
  sirius.flow_started(tuple(1000), true);
  EXPECT_EQ(sirius.live_flows(), 1u);
  sirius.flow_finished(tuple(1000));
  EXPECT_EQ(sirius.live_flows(), 0u);
}

}  // namespace
}  // namespace nezha::baseline
