// Fleet-scale Clos acceptance test.
//
// Instantiates the full multi-ToR testbed — 128 vSwitches across a 2-tier
// leaf/spine fabric — populates it with cross-rack client/server pairs via
// FleetScenario, offloads every server vNIC concurrently, runs CPS traffic
// whose BE↔FE legs compete for spine bandwidth, and induces an FE crash
// mid-run. The InvariantChecker runs continuously throughout and must stay
// green; the run's counter fingerprint must be identical across two
// executions of the same seed (the simulation is a pure function of
// config + seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/telemetry/trace_query.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

constexpr std::size_t kVSwitches = 128;
constexpr std::size_t kPairs = 10;  // >= 8 concurrent offloads

struct FleetRun {
  std::uint64_t fingerprint = 0;
  std::size_t offloads_accepted = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t spine_traffic = 0;
  std::size_t stalled_pairs = 0;
  std::size_t violations = 0;
  std::uint64_t checks = 0;
  std::string report;
  // Telemetry runs only: the flight-recorder events, metric sample count
  // and the JSON snapshot (empty otherwise).
  std::vector<telemetry::TraceEvent> events;
  std::size_t samples_taken = 0;
  std::string metrics_json;
};

FleetRun run_fleet_scenario(std::uint64_t seed, bool with_telemetry = false) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      kVSwitches, /*hosts_per_leaf=*/8, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  if (with_telemetry) {
    cfg.telemetry.enabled = true;
    // 4K events/node keeps the 131-ring recorder under ~30 MB at this
    // fleet size while retaining several seconds of per-node history.
    cfg.telemetry.events_per_node = 1 << 12;
    cfg.telemetry.sample_period = common::milliseconds(250);
  }
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = kPairs;
  sc.base_attempts_per_sec = 200.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);

  core::InvariantChecker checker(
      bed, core::InvariantCheckerConfig{.seed = seed});
  checker.attach(common::milliseconds(50));

  scenario.deploy();
  checker.record("deploy pairs=" + std::to_string(kPairs));

  FleetRun r;
  r.offloads_accepted = scenario.offload_all();
  checker.record("offload_all accepted=" +
                 std::to_string(r.offloads_accepted));
  bed.run_for(common::seconds(4));

  scenario.start_traffic();
  checker.record("start_traffic");
  bed.run_for(common::seconds(2));

  // Induce an FE crash under load; the monitor-equivalent notification goes
  // straight to the controller, as in the other chaos suites.
  const tables::VnicId victim_vnic = scenario.server_vnics().front();
  const auto fes = bed.controller().fe_nodes_of(victim_vnic);
  if (!fes.empty()) {
    const sim::NodeId victim = fes.front();
    checker.record("crash node=" + std::to_string(victim));
    bed.network().crash(victim);
    bed.controller().handle_fe_crash(victim);
  }
  bed.run_for(common::seconds(3));

  scenario.stop_traffic();
  checker.record("stop_traffic");
  bed.run_for(common::seconds(1));
  checker.check();

  for (const auto& wl : scenario.workloads()) {
    r.attempted += wl->attempted();
    r.completed += wl->completed();
  }
  for (std::uint64_t b : bed.network().spine_bytes()) r.spine_traffic += b;
  r.fingerprint = scenario.fingerprint();
  r.stalled_pairs = support::stalled_pairs(scenario);
  r.violations = checker.violations().size();
  r.checks = checker.checks_run();
  r.report = checker.ok() ? "" : checker.report();
  if (bed.telemetry() != nullptr) {
    r.events = bed.telemetry()->recorder().merged();
    r.samples_taken = bed.telemetry()->metrics().samples_taken();
    std::ostringstream js;
    bed.telemetry()->write_json(js);
    r.metrics_json = js.str();
  }
  return r;
}

TEST(FleetClos, FleetScaleRunWithFeCrashKeepsInvariants) {
  const FleetRun r = run_fleet_scenario(42);

  EXPECT_GE(r.offloads_accepted, 8u) << "not enough concurrent offloads";
  EXPECT_EQ(r.violations, 0u) << r.report;
  EXPECT_GT(r.checks, 100u);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_GT(r.completed, 0u) << "no CPS handshakes completed over the fabric";
  EXPECT_EQ(r.stalled_pairs, 0u) << "a pair completed no connection";
  EXPECT_GT(r.spine_traffic, 0u)
      << "cross-rack pairs produced no spine-tier traffic";
}

TEST(FleetClos, SameSeedRunsProduceIdenticalFingerprints) {
  const FleetRun a = run_fleet_scenario(7);
  const FleetRun b = run_fleet_scenario(7);
  EXPECT_EQ(a.fingerprint, b.fingerprint)
      << "same-seed fleet runs diverged: nondeterminism in the engine";
  EXPECT_EQ(a.attempted, b.attempted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.violations, 0u) << a.report;
  EXPECT_EQ(b.violations, 0u) << b.report;
}

// Tentpole acceptance: turning the full telemetry plane on (flight
// recorder + metric sampler) must not perturb the simulation — the
// workload fingerprint is bit-identical to the telemetry-off run — and the
// recorded trace must reconstruct at least one connection's complete
// BE→FE→peer forwarding detour at fleet scale.
TEST(FleetClos, TelemetryOnMatchesTelemetryOffFingerprint) {
  const FleetRun off = run_fleet_scenario(7, /*with_telemetry=*/false);
  const FleetRun on = run_fleet_scenario(7, /*with_telemetry=*/true);

  EXPECT_EQ(on.fingerprint, off.fingerprint)
      << "enabling telemetry changed the simulation outcome";
  EXPECT_EQ(on.attempted, off.attempted);
  EXPECT_EQ(on.completed, off.completed);
  EXPECT_EQ(on.violations, 0u) << on.report;

  EXPECT_FALSE(on.events.empty());
  EXPECT_GT(on.samples_taken, 0u);
  EXPECT_NE(on.metrics_json.find("nezha-telemetry-v1"), std::string::npos);
  // The registry carries the fleet-wide per-hop-class latency series.
  EXPECT_NE(on.metrics_json.find("latency.be_rx_us"), std::string::npos);

  // Every BE→FE redirect names a flow; at least one of them must trace out
  // the full detour (a crashed FE can legitimately truncate others).
  std::size_t redirects = 0;
  bool complete = false;
  std::uint64_t witness = 0;
  for (const auto& e : on.events) {
    if (e.kind != telemetry::EventKind::kBeFeRedirect || e.flow == 0) {
      continue;
    }
    ++redirects;
    if (!complete &&
        telemetry::check_be_fe_peer_path(on.events, e.flow).complete()) {
      complete = true;
      witness = e.flow;
    }
  }
  EXPECT_GT(redirects, 0u) << "no BE→FE redirects were traced";
  EXPECT_TRUE(complete)
      << "no connection's BE→FE→peer path reconstructed from " << redirects
      << " redirects";
  if (complete) {
    const auto check = telemetry::check_be_fe_peer_path(on.events, witness);
    EXPECT_NE(check.be_node, check.fe_node);
    EXPECT_NE(check.peer_node, check.fe_node);
  }
}

TEST(FleetClos, DifferentSeedsProduceDifferentTraffic) {
  const FleetRun a = run_fleet_scenario(7);
  const FleetRun c = run_fleet_scenario(8);
  // The fleet model reshuffles load scales and workload arrivals per seed;
  // identical fingerprints across seeds would mean the seed is ignored.
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

// Past 1000 pairs the server and client id ranges must not meet: pair
// 1000's server may not reuse pair 0's client id, or the controller would
// silently overwrite that vNIC's record.
TEST(FleetClos, MoreThanThousandPairsGetDistinctVnicIds) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      kVSwitches, /*hosts_per_leaf=*/8, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);
  workload::FleetScenarioConfig sc;
  sc.num_pairs = 1024;
  workload::FleetScenario scenario(bed, sc);
  scenario.deploy();
  EXPECT_EQ(bed.controller().vnic_ids().size(), 2 * sc.num_pairs);
}

}  // namespace
}  // namespace nezha
