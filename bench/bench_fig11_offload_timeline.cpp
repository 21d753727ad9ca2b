// Fig 11: vSwitch CPU utilization during offloading and FE scaling.
// Paper: ramping the vNIC's CPS drives the BE vSwitch toward the offload
// threshold (70%); activation drops BE CPU from ~70% to ~10%; when the FEs'
// average CPU exceeds 40%, scale-out doubles the pool (4 → 8 FEs) and
// halves FE utilization.
//
// Here the controller runs fully automatically (monitoring, thresholds,
// Fig 8 decision logic); the bench only ramps the offered load.
#include "bench/bench_util.h"
#include "support/scenarios.h"

using namespace nezha;

int main(int argc, char** argv) {
  const bool clos = benchutil::has_flag(argc, argv, "--clos");
  benchutil::banner(std::string("Figure 11 — CPU utilization during "
                                "offloading/scaling") +
                        (clos ? " [Clos fabric]" : " [single rack]"),
                    "BE: ramps to 70% → drops to ~10% on offload; FEs "
                    "scale out 4→8 when avg FE CPU > 40%");

  core::TestbedConfig cfg = support::hot_server_config(clos);
  cfg.controller.auto_offload = true;
  cfg.controller.auto_scale = true;
  cfg.controller.monitor_period = common::milliseconds(250);
  // CPU-utilization series come from the telemetry registry's per-vSwitch
  // gauges; the sampler tick matches the bench's 500ms reporting window.
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace = false;  // metrics only; no trace consumer here
  cfg.telemetry.sample_period = common::milliseconds(500);
  cfg.telemetry.max_samples = 64;
  // Open loop at 2K conn/s per client, ramped below.
  support::CpsBed s = support::hot_server_bed(
      cfg, {.server_vcpus = 32, .attempts_per_sec = 2000, .seed_base = 300});
  core::Testbed& bed = *s.bed;
  auto& clients = s.clients;
  telemetry::MetricsRegistry& metrics = bed.telemetry()->metrics();

  bed.controller().start();
  s.start();

  // Ramp the per-client offered load 2K → 40K conn/s over 12 seconds.
  for (int step = 0; step <= 24; ++step) {
    bed.loop().schedule_at(common::milliseconds(500) * step, [&, step]() {
      for (auto& c : clients) {
        c->set_attempts_per_sec(2000 + step * 1150.0);
      }
    });
  }

  // BE + average-FE utilization from the registry's last sampler tick
  // (the tick at each 500ms boundary fires inside run_for before it
  // returns, so the read covers exactly the preceding window).
  const auto be_gauge = metrics.find_gauge(
      "vs" + std::to_string(support::kHotServerHost) + ".cpu_util");
  benchutil::Table t({"t (s)", "offered CPS", "BE CPU", "avg FE CPU",
                      "#FEs", "mode"});
  double be_peak = 0, be_after_offload = 1.0;
  bool offloaded_seen = false;
  std::size_t max_fes = 0;

  for (int tick = 1; tick <= 36; ++tick) {
    bed.run_for(common::milliseconds(500));
    const common::TimePoint now = bed.loop().now();
    const double be_util = metrics.last_sample_gauge(be_gauge);
    const auto fes = bed.controller().fe_nodes_of(support::kServer);
    double fe_util = 0;
    for (sim::NodeId n : fes) {
      fe_util += metrics.last_sample_gauge(
          metrics.find_gauge("vs" + std::to_string(n) + ".cpu_util"));
    }
    if (!fes.empty()) fe_util /= static_cast<double>(fes.size());
    max_fes = std::max(max_fes, fes.size());

    const auto* vnic =
        bed.vswitch(support::kHotServerHost).find_vnic(support::kServer);
    const std::string mode = to_string(vnic->mode());
    if (vnic->mode() == vswitch::VnicMode::kLocal) {
      be_peak = std::max(be_peak, be_util);
    }
    if (vnic->mode() == vswitch::VnicMode::kOffloaded) {
      offloaded_seen = true;
      be_after_offload = std::min(be_after_offload, be_util);
    }
    if (tick % 2 == 0) {
      const double offered = static_cast<double>(clients.size()) *
                             (2000 + std::min(tick, 24) * 1150.0);
      t.add_row({benchutil::fmt(common::to_seconds(now), 1),
                 benchutil::fmt_si(offered, 0), benchutil::fmt_pct(be_util),
                 benchutil::fmt_pct(fe_util), std::to_string(fes.size()),
                 mode});
    }
  }
  t.print();

  std::printf("\n  BE peak before offload: %s (paper: ~70%% trigger);"
              " BE floor after offload: %s (paper: ~10%%)\n",
              benchutil::fmt_pct(be_peak).c_str(),
              benchutil::fmt_pct(be_after_offload).c_str());
  std::printf("  Max #FEs: %zu (paper: scale-out 4 → 8)\n", max_fes);
  benchutil::verdict(offloaded_seen && be_peak > 0.55 &&
                         be_after_offload < 0.25,
                     "offload drops BE CPU from ~70% to ~10%");
  benchutil::verdict(max_fes >= 8 && max_fes <= 16,
                     "FE pool scales out (4 -> 8+) when FE CPU crosses 40%");
  return benchutil::exit_status();
}
