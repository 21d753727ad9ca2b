// Tests for the workload layer: VM kernel scaling law, the TCP_CRR-style
// CPS workload end to end, fleet distribution anchors, SYN-flood memory
// behaviour, and the migration cost model.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"
#include "src/workload/fleet_model.h"
#include "src/workload/migration_model.h"
#include "src/workload/syn_flood.h"
#include "src/workload/vm_model.h"

namespace nezha::workload {
namespace {

using common::milliseconds;
using common::seconds;

TEST(VmKernelTest, CapacityGrowsSublinearly) {
  const double cps8 = VmKernel(VmKernelConfig{.vcpus = 8}).max_cps();
  const double cps16 = VmKernel(VmKernelConfig{.vcpus = 16}).max_cps();
  const double cps32 = VmKernel(VmKernelConfig{.vcpus = 32}).max_cps();
  const double cps64 = VmKernel(VmKernelConfig{.vcpus = 64}).max_cps();
  EXPECT_GT(cps16, cps8);
  EXPECT_GT(cps32, cps16);
  EXPECT_GT(cps64, cps32);
  // Doubling cores yields less than double the CPS (kernel locks, Fig 10).
  EXPECT_LT(cps16 / cps8, 2.0);
  EXPECT_LT(cps64 / cps32, cps16 / cps8);
}

TEST(VmKernelTest, AdmissionRespectsCapacity) {
  VmKernel kernel(VmKernelConfig{.vcpus = 1,
                                 .cps_per_core = 1000,
                                 .contention = 0.0,
                                 .max_backlog = milliseconds(10)});
  // Offer 100 connections at t=0: 1000/s capacity and 10ms backlog admit
  // only ~10 instantly.
  std::uint64_t admitted = 0;
  for (int i = 0; i < 100; ++i) {
    if (kernel.admit(0).accepted) ++admitted;
  }
  EXPECT_GE(admitted, 9u);
  EXPECT_LE(admitted, 12u);
  EXPECT_GT(kernel.rejected(), 0u);
}

class CpsWorkloadTest : public ::testing::Test {
 protected:
  CpsWorkloadTest() : bed_(make_config()) {
    vswitch::VnicConfig client, server;
    client.id = 1;
    client.addr = {3, net::Ipv4Addr(10, 0, 0, 1)};
    server.id = 2;
    server.addr = {3, net::Ipv4Addr(10, 0, 0, 2)};
    bed_.add_vnic(0, client);
    bed_.add_vnic(1, server);
  }
  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 8;
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    return cfg;
  }
  core::Testbed bed_;
};

TEST_F(CpsWorkloadTest, CompletesConnectionsLocally) {
  CpsWorkloadConfig cfg;
  cfg.attempts_per_sec = 2000;
  CpsWorkload wl(bed_, 0, 1, 1, 2, cfg);
  wl.start();
  bed_.run_for(seconds(1));
  wl.stop();
  EXPECT_GT(wl.attempted(), 1500u);
  // Nearly every attempt completes at this modest load.
  EXPECT_GT(wl.completed(), wl.attempted() * 9 / 10);
  EXPECT_GT(wl.connect_latency_us().count(), 0u);
  // Connect latency at light load ≈ 2 × (5us fabric + VM service).
  EXPECT_LT(wl.connect_latency_us().median(), 500.0);
}

TEST_F(CpsWorkloadTest, VSwitchCpuBoundsCps) {
  // Throttle the server vSwitch CPU so the slow path saturates: completed
  // CPS must flatten well below the offered load.
  core::TestbedConfig cfg = make_config();
  cfg.vswitch.cpu.cores = 1;
  cfg.vswitch.cpu.hz_per_core = 25e6;  // ~6000 slow-path lookups/s
  core::Testbed bed(cfg);
  vswitch::VnicConfig client, server;
  client.id = 1;
  client.addr = {3, net::Ipv4Addr(10, 0, 0, 1)};
  server.id = 2;
  server.addr = {3, net::Ipv4Addr(10, 0, 0, 2)};
  bed.add_vnic(0, client);
  bed.add_vnic(1, server);
  CpsWorkloadConfig wcfg;
  wcfg.attempts_per_sec = 50000;
  CpsWorkload wl(bed, 0, 1, 1, 2, wcfg);
  wl.start();
  bed.run_for(seconds(1));
  wl.stop();
  EXPECT_LT(wl.completed(), 20000u);
  EXPECT_GT(bed.vswitch(0).counters().get("drop.cpu_overload") +
                bed.vswitch(1).counters().get("drop.cpu_overload"),
            0u);
}

TEST_F(CpsWorkloadTest, CpsOverWindow) {
  CpsWorkloadConfig cfg;
  cfg.attempts_per_sec = 1000;
  CpsWorkload wl(bed_, 0, 1, 1, 2, cfg);
  wl.measure_window(seconds(1), seconds(2));
  wl.start();
  bed_.run_for(seconds(2));
  wl.stop();
  const double cps = wl.window_cps();
  EXPECT_GT(cps, 700.0);
  EXPECT_LT(cps, 1300.0);
}

TEST(QuantileDistributionTest, InterpolatesAnchors) {
  QuantileDistribution dist({{0.0, 1.0}, {0.5, 10.0}, {1.0, 100.0}});
  EXPECT_DOUBLE_EQ(dist.value_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.value_at(0.5), 10.0);
  EXPECT_DOUBLE_EQ(dist.value_at(1.0), 100.0);
  // Log-linear midpoint.
  EXPECT_NEAR(dist.value_at(0.25), std::sqrt(10.0), 1e-9);
  EXPECT_THROW(QuantileDistribution({{0.5, 1.0}}), std::invalid_argument);
}

TEST(FleetModelTest, CpuUtilizationMatchesPaperAnchors) {
  FleetModel model(FleetModelConfig{.num_vswitches = 200000, .seed = 5});
  auto samples = model.sample_cpu_utilization();
  common::Percentiles p;
  for (double v : samples) p.add(v);
  // Fig 4a: avg ≈ 5%, P90 ≈ 15%, P99 ≈ 41%, P9999 ≈ 90%.
  EXPECT_NEAR(p.mean(), 0.05, 0.02);
  EXPECT_NEAR(p.percentile(90), 0.15, 0.02);
  EXPECT_NEAR(p.percentile(99), 0.41, 0.05);
  EXPECT_NEAR(p.percentile(99.99), 0.90, 0.05);
}

TEST(FleetModelTest, MemoryUtilizationMatchesPaperAnchors) {
  FleetModel model(FleetModelConfig{.num_vswitches = 200000, .seed = 6});
  auto samples = model.sample_memory_utilization();
  common::Percentiles p;
  for (double v : samples) p.add(v);
  // Fig 4b anchors. (The paper's "average ≈1.5%" is not exactly achievable
  // jointly with P90 = 15% — the top decile alone contributes ≥1.5% — so we
  // assert the percentile anchors and a loose bound on the mean.)
  EXPECT_NEAR(p.percentile(90), 0.15, 0.02);
  EXPECT_NEAR(p.percentile(99), 0.34, 0.05);
  EXPECT_NEAR(p.percentile(99.9), 0.93, 0.08);
  EXPECT_LT(p.mean(), 0.05);
  EXPECT_GT(p.percentile(99.99) / p.mean(), 15.0);
}

TEST(FleetModelTest, HotspotCauseShares) {
  FleetModel model(FleetModelConfig{.seed = 7});
  auto causes = model.sample_hotspot_causes(100000);
  std::size_t cps = 0, flows = 0, vnics = 0;
  for (auto c : causes) {
    if (c == HotspotCause::kCps) ++cps;
    else if (c == HotspotCause::kConcurrentFlows) ++flows;
    else ++vnics;
  }
  EXPECT_NEAR(static_cast<double>(cps) / 100000, 0.61, 0.01);
  EXPECT_NEAR(static_cast<double>(flows) / 100000, 0.30, 0.01);
  EXPECT_NEAR(static_cast<double>(vnics) / 100000, 0.09, 0.01);
}

TEST(FleetModelTest, UsageTailMatchesTable1) {
  FleetModel model(FleetModelConfig{.seed = 8});
  auto usage = model.sample_usage(HotspotCause::kCps, 500000);
  common::Percentiles p;
  for (double v : usage) p.add(v);
  // Table 1: P50 = 0.53% of the P9999 user's usage.
  EXPECT_NEAR(p.median(), 0.0053, 0.001);
  EXPECT_NEAR(p.percentile(99), 0.0641, 0.01);
  EXPECT_GT(p.percentile(99.99), 0.5);
}

TEST(FleetModelTest, HighCpsPairsMatchFig2) {
  FleetModel model(FleetModelConfig{.seed = 9});
  auto pairs = model.sample_high_cps_pairs(50000);
  std::size_t vm_below_60 = 0;
  for (const auto& pr : pairs) {
    EXPECT_GT(pr.vswitch_cpu, 0.95);
    if (pr.vm_cpu < 0.60) ++vm_below_60;
  }
  EXPECT_NEAR(static_cast<double>(vm_below_60) / 50000, 0.90, 0.02);
}

TEST_F(CpsWorkloadTest, SynFloodFillsBackendStateUntilAged) {
  // §7.3: flood SYNs; embryonic aging reclaims the state.
  bed_.vswitch(0).start_aging();
  SynFlood flood(bed_, 0, 1, net::Ipv4Addr(10, 0, 0, 2),
                 SynFloodConfig{.syns_per_sec = 5000});
  flood.start();
  bed_.run_for(milliseconds(800));
  flood.stop();
  EXPECT_GT(flood.sent(), 3000u);
  const std::size_t during = bed_.vswitch(0).sessions().size();
  EXPECT_GT(during, 1000u);
  // After the embryonic TTL (1s) + a sweep, the sessions are gone.
  bed_.run_for(seconds(3));
  EXPECT_LT(bed_.vswitch(0).sessions().size(), during / 10);
}

TEST(MigrationModelTest, DowntimeGrowsWithResources) {
  MigrationModel model;
  common::Rng rng(10);
  common::Summary small, large;
  for (int i = 0; i < 200; ++i) {
    small.add(common::to_millis(model.downtime(8, 32, rng)));
    large.add(common::to_millis(model.downtime(128, 1024, rng)));
  }
  EXPECT_GT(large.mean(), small.mean() * 3);
  // Fig A1 / §7.2: a 1TB VM migration takes tens of minutes to complete.
  common::Summary completion;
  for (int i = 0; i < 200; ++i) {
    completion.add(common::to_seconds(model.completion_time(1024, rng)));
  }
  EXPECT_GT(completion.mean(), 600.0);
}

}  // namespace
}  // namespace nezha::workload
