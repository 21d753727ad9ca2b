// SLO tracker tests (DESIGN.md §16): threshold-crossing semantics on a
// bare registry, determinism of the `slo` JSON section (byte-equal across
// same-seed runs and across worker-thread counts, summed violation
// counters included), and the hard gate that wiring the tracker into the
// telemetry plane does not perturb the simulation — the e2e golden
// fingerprints must survive telemetry+SLO bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/testbed.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/hub.h"
#include "src/telemetry/slo.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using support::E2eFingerprint;
using telemetry::Hub;
using telemetry::MetricsRegistry;
using telemetry::SloRule;
using telemetry::SloTracker;
using telemetry::SloWiring;
using telemetry::TelemetryConfig;

// ------------------------------------------------------ threshold crossing

TelemetryConfig bare_hub_config() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = milliseconds(10);
  cfg.events_per_node = 64;
  return cfg;
}

/// Drives the sampler in whole-tick steps: `set(i)` runs before the i-th
/// tick (1-based) is taken, so gauge reads at that tick see its values.
template <typename SetFn>
void drive_ticks(sim::EventLoop& loop, Hub& hub, int ticks, SetFn set) {
  for (int i = 1; i <= ticks; ++i) {
    set(i);
    loop.run_until(milliseconds(10) * i);
  }
  (void)hub;
}

TEST(SloThresholdTest, CpuHeadroomBreachCountsBurnsAndTraces) {
  TelemetryConfig cfg = bare_hub_config();
  cfg.slo.max_cpu_util = 0.95;
  cfg.slo.burn_window = 4;
  Hub hub(/*num_nodes=*/8, cfg);
  sim::EventLoop loop;

  double cpu3 = 0.0, cpu5 = 0.0;
  MetricsRegistry& m = hub.metrics();
  m.gauge("vs3.cpu_util", [&cpu3] { return cpu3; });
  m.gauge("vs5.cpu_util", [&cpu5] { return cpu5; });
  hub.enable_slo(SloWiring{/*fleet_node=*/8, /*monitor_node=*/9, 2});
  ASSERT_NE(hub.slo(), nullptr);
  hub.start_sampler(loop);

  // 5 healthy ticks, then 5 with vs5 saturated.
  drive_ticks(loop, hub, 10, [&](int i) {
    cpu3 = 0.40;
    cpu5 = i <= 5 ? 0.60 : 0.99;
  });
  hub.stop_sampler();

  const SloTracker& slo = *hub.slo();
  EXPECT_TRUE(slo.rule_active(SloRule::kCpuHeadroom));
  EXPECT_EQ(slo.violations(SloRule::kCpuHeadroom), 5u);
  EXPECT_EQ(slo.total_violations(), 5u);
  // Burn window is 4 ticks, all in breach at the end.
  EXPECT_DOUBLE_EQ(slo.burn_rate(SloRule::kCpuHeadroom), 1.0);
  // Counters were interned before the sampler started and track 1:1.
  const auto c = m.find_counter("slo.violations");
  const auto cr = m.find_counter("slo.violations.cpu_util");
  ASSERT_NE(c, MetricsRegistry::kInvalidId);
  ASSERT_NE(cr, MetricsRegistry::kInvalidId);
  EXPECT_EQ(m.counter_value(c), 5u);
  EXPECT_EQ(m.counter_value(cr), 5u);
  // Every violation names the offending node (vs5, the fleet max).
  std::size_t trace_events = 0;
  for (const auto& e : hub.recorder().merged()) {
    if (e.kind != telemetry::EventKind::kSloViolation) continue;
    ++trace_events;
    EXPECT_EQ(e.a, static_cast<std::uint64_t>(SloRule::kCpuHeadroom));
    EXPECT_EQ(e.node, 5u);
    EXPECT_EQ(e.b, 990u);  // 0.99 * 1000, truncated
  }
  EXPECT_EQ(trace_events, 5u);
}

TEST(SloThresholdTest, WindowedP99BreachesOnlyWhileTailIsSlow) {
  TelemetryConfig cfg = bare_hub_config();
  cfg.slo.p99_local_rx_us = 1500.0;
  Hub hub(4, cfg);
  sim::EventLoop loop;

  MetricsRegistry& m = hub.metrics();
  const auto h = m.histogram("latency.local_rx_us", 0.0, 2000.0, 20);
  hub.enable_slo(SloWiring{4, 5, 2});
  hub.start_sampler(loop);

  // Ticks 1-3: fast window (p99 ~ 100us). Ticks 4-6: slow (~1800us).
  // Ticks 7-8: no new observations at all — the rule must not evaluate.
  drive_ticks(loop, hub, 8, [&](int i) {
    if (i > 6) return;
    for (int k = 0; k < 100; ++k) m.observe(h, i <= 3 ? 100.0 : 1800.0);
  });
  hub.stop_sampler();

  const SloTracker& slo = *hub.slo();
  EXPECT_TRUE(slo.rule_active(SloRule::kP99LocalRx));
  EXPECT_EQ(slo.violations(SloRule::kP99LocalRx), 3u);
  // Ticks 7-8 carried no samples: only 6 evaluated ticks.
  const std::string json = [&] {
    std::ostringstream os;
    hub.write_json(os);
    return os.str();
  }();
  EXPECT_NE(json.find("\"p99_local_rx_us\": {\"threshold\": 1500"),
            std::string::npos);
  EXPECT_NE(json.find("\"ticks\": 6"), std::string::npos);
}

TEST(SloThresholdTest, ProbeLossComparesAgainstLaggedProbeCount) {
  TelemetryConfig cfg = bare_hub_config();
  cfg.slo.max_probe_loss = 0.05;
  Hub hub(4, cfg);
  sim::EventLoop loop;

  double sent = 0.0, replies = 0.0;
  MetricsRegistry& m = hub.metrics();
  m.gauge("mon.probes_sent", [&sent] { return sent; });
  m.gauge("mon.probe_replies", [&replies] { return replies; });
  hub.enable_slo(SloWiring{4, /*monitor_node=*/9, /*probe_lag_ticks=*/2});
  hub.start_sampler(loop);

  // Phase 1 (ticks 1-10): replies keep pace — in-flight probes must never
  // read as loss. Phase 2 (ticks 11-20): replies freeze, probes continue.
  drive_ticks(loop, hub, 20, [&](int i) {
    sent = 10.0 * i;
    if (i <= 10) replies = sent;
  });
  hub.stop_sampler();

  const SloTracker& slo = *hub.slo();
  EXPECT_TRUE(slo.rule_active(SloRule::kProbeLoss));
  EXPECT_GT(slo.violations(SloRule::kProbeLoss), 0u);
  // The healthy phase contributed zero: every violation happened after the
  // reply counter froze at 100, i.e. loss vs the lagged baseline.
  EXPECT_LE(slo.violations(SloRule::kProbeLoss), 10u);
  for (const auto& e : hub.recorder().merged()) {
    if (e.kind != telemetry::EventKind::kSloViolation) continue;
    EXPECT_EQ(e.a, static_cast<std::uint64_t>(SloRule::kProbeLoss));
    EXPECT_EQ(e.node, 9u);  // attributed to the monitor slot
  }
}

TEST(SloThresholdTest, UnwiredRulesStayInactiveAndHarmless) {
  TelemetryConfig cfg = bare_hub_config();
  Hub hub(2, cfg);
  sim::EventLoop loop;
  hub.enable_slo(SloWiring{2, 3, 2});
  hub.start_sampler(loop);
  loop.run_until(milliseconds(100));
  hub.stop_sampler();

  const SloTracker& slo = *hub.slo();
  for (std::size_t r = 0; r < static_cast<std::size_t>(SloRule::kCount);
       ++r) {
    EXPECT_FALSE(slo.rule_active(static_cast<SloRule>(r)));
  }
  EXPECT_EQ(slo.total_violations(), 0u);
  std::ostringstream os;
  hub.write_json(os);
  EXPECT_NE(os.str().find("\"slo\": "), std::string::npos);
  EXPECT_NE(os.str().find("\"total_violations\": 0"), std::string::npos);
}

TEST(SloThresholdTest, DisabledSloConfigWiresNoTracker) {
  TelemetryConfig cfg = bare_hub_config();
  cfg.slo.enabled = false;
  Hub hub(2, cfg);
  hub.enable_slo(SloWiring{2, 3, 2});
  EXPECT_EQ(hub.slo(), nullptr);
  std::ostringstream os;
  hub.write_json(os);
  EXPECT_EQ(os.str().find("\"slo\": "), std::string::npos);
}

// ------------------------------------------------- determinism (Clos bed)

struct ClosRun {
  std::uint64_t fingerprint = 0;
  std::string metrics_json;
  std::string slo_section;
  std::uint64_t slo_violations = 0;  // summed across shard hubs
};

/// Fleet scenario on the Clos fabric with telemetry+SLO on. shards == 1 is
/// the engine-less reference; shards > 1 exercises the sharded hubs at the
/// given worker-thread count.
ClosRun run_clos(std::uint64_t seed, std::size_t shards, int threads) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      /*num_vswitches=*/64, /*hosts_per_leaf=*/8, /*num_spines=*/4,
      /*oversubscription=*/2.0);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.monitor.probe_interval = milliseconds(100);
  cfg.monitor.probe_timeout = milliseconds(50);
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.telemetry.enabled = true;
  cfg.telemetry.events_per_node = 1 << 10;
  cfg.telemetry.sample_period = milliseconds(250);
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = 6;
  sc.base_attempts_per_sec = 200.0;
  sc.seed = seed;
  workload::FleetScenario scenario(bed, sc);

  scenario.deploy();
  scenario.offload_all();
  bed.run_for(seconds(2));
  scenario.start_traffic();
  bed.run_for(seconds(2));
  scenario.stop_traffic();
  bed.run_for(milliseconds(500));

  ClosRun r;
  r.fingerprint = scenario.fingerprint();
  std::ostringstream js;
  bed.telemetry()->write_json(js);
  r.metrics_json = js.str();
  // The `slo` section is the trailing registered section; everything from
  // its key to the end of the document is tracker-owned bytes.
  const std::size_t at = r.metrics_json.find("\"slo\": ");
  EXPECT_NE(at, std::string::npos);
  r.slo_section =
      at == std::string::npos ? "" : r.metrics_json.substr(at);
  for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
    telemetry::Hub* hub = bed.telemetry_of_shard(s);
    EXPECT_NE(hub, nullptr) << "shard " << s;
    if (hub == nullptr) continue;
    const auto& m = hub->metrics();
    const auto id = m.find_counter("slo.violations");
    EXPECT_NE(id, MetricsRegistry::kInvalidId) << "shard " << s;
    if (id != MetricsRegistry::kInvalidId) {
      r.slo_violations += m.counter_value(id);
    }
    EXPECT_NE(hub->slo(), nullptr) << "shard " << s;
  }
  return r;
}

TEST(SloDeterminismTest, SameSeedRunsEmitByteIdenticalSloSection) {
  const ClosRun a = run_clos(7, /*shards=*/1, /*threads=*/1);
  const ClosRun b = run_clos(7, /*shards=*/1, /*threads=*/1);
  EXPECT_FALSE(a.slo_section.empty());
  EXPECT_EQ(a.slo_section, b.slo_section)
      << "same-seed slo sections differ: tracker state is nondeterministic";
  // The unsharded bed carries no wall-clock sections at all, so the whole
  // telemetry document is run-invariant too.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
}

TEST(SloDeterminismTest, SloOutcomeIsWorkerThreadInvariant) {
  const ClosRun t1 = run_clos(11, /*shards=*/4, /*threads=*/1);
  const ClosRun t2 = run_clos(11, /*shards=*/4, /*threads=*/2);
  EXPECT_EQ(t1.fingerprint, t2.fingerprint);
  EXPECT_FALSE(t1.slo_section.empty());
  EXPECT_EQ(t1.slo_section, t2.slo_section)
      << "shard-0 slo section depends on the worker-thread count";
  EXPECT_EQ(t1.slo_violations, t2.slo_violations)
      << "summed slo.violations counters depend on the thread count";
}

// ---------------------------------------------- golden fingerprint gate

constexpr std::uint64_t kGoldenBurstPackets = 4585200;
constexpr std::uint64_t kGoldenBurstConnections = 1146286;
constexpr std::uint64_t kGoldenExactPackets = 4585995;
constexpr std::uint64_t kGoldenExactConnections = 1146438;

/// The golden e2e bed (support/scenarios.h, the bed policy_golden_test
/// runs) with the full telemetry plane (SLO tracker included) switched on.
/// The tracker samples the simulation; it must never steer it.
E2eFingerprint run_e2e_with_slo(bool bursts) {
  core::TestbedConfig cfg = support::e2e_config(bursts);
  cfg.telemetry.enabled = true;
  cfg.telemetry.events_per_node = 1 << 12;
  support::CpsBed s = support::e2e_bed(cfg, bursts);
  const E2eFingerprint fp = support::run_e2e(s);

  // The tracker really ran: counters exist and the section renders.
  Hub* hub = s.bed->telemetry();
  EXPECT_NE(hub, nullptr);
  EXPECT_NE(hub->slo(), nullptr);
  std::ostringstream js;
  hub->write_json(js);
  EXPECT_NE(js.str().find("\"slo\": "), std::string::npos);
  return fp;
}

TEST(SloGoldenTest, TelemetryWithSloPreservesBurstGoldenFingerprint) {
  const E2eFingerprint fp = run_e2e_with_slo(/*bursts=*/true);
  EXPECT_EQ(fp.delivered, kGoldenBurstPackets);
  EXPECT_EQ(fp.completed, kGoldenBurstConnections);
}

TEST(SloGoldenTest, TelemetryWithSloPreservesExactGoldenFingerprint) {
  const E2eFingerprint fp = run_e2e_with_slo(/*bursts=*/false);
  EXPECT_EQ(fp.delivered, kGoldenExactPackets);
  EXPECT_EQ(fp.completed, kGoldenExactConnections);
}

}  // namespace
}  // namespace nezha
