// Fig 14: impact of an FE crash on the region-level packet loss rate.
// Paper: a crash causes a loss-rate surge lasting ≈2s (detection via ping
// polling + failover reconfiguration), affecting only the 1/N of traffic
// hashed to the dead FE (active-active); then the system fully recovers.
#include "bench/bench_util.h"
#include "support/scenarios.h"

using namespace nezha;

int main(int argc, char** argv) {
  const bool clos = benchutil::has_flag(argc, argv, "--clos");
  benchutil::banner(std::string("Figure 14 — impact of FE crash on packet "
                                "loss rate") +
                        (clos ? " [Clos fabric]" : " [single rack]"),
                    "loss surge for ≈2s on ~1/4 of flows, then full recovery");

  core::TestbedConfig cfg = support::pair_config(clos);
  // Sent/delivered tallies live in the telemetry registry (metrics only;
  // no trace consumer here).
  cfg.telemetry.enabled = true;
  cfg.telemetry.trace = false;
  core::Testbed bed(cfg);
  telemetry::MetricsRegistry& metrics = bed.telemetry()->metrics();
  const auto sent_ctr = metrics.counter("bench.pkts_sent");
  const auto delivered_ctr = metrics.counter("bench.pkts_delivered");

  support::add_pair(bed);
  bed.vswitch(support::kPairServerHost)
      .set_vm_delivery([&metrics, delivered_ctr](tables::VnicId,
                                                 const net::Packet&) {
        metrics.add(delivered_ctr);
      });
  support::offload_pair(bed);
  bed.watch_fe_hosts();
  bed.monitor().start();

  // Steady traffic: 200 flows × 100 pps = 20K pps toward the server.
  constexpr int kFlows = 200;
  support::pump_pair(bed, kFlows, common::milliseconds(10), common::seconds(16),
                     [&metrics, sent_ctr] { metrics.add(sent_ctr, kFlows); });
  bed.run_for(common::seconds(2));

  // Crash one FE at t≈6s (not the client's host).
  const common::TimePoint crash_at = bed.loop().now();
  support::crash_pair_fe(bed);

  // Sample loss rate in 250ms windows.
  benchutil::Table t({"t since crash (s)", "loss rate"});
  std::uint64_t prev_sent = metrics.counter_value(sent_ctr);
  std::uint64_t prev_delivered = metrics.counter_value(delivered_ctr);
  double max_loss = 0;
  common::TimePoint loss_start = -1, loss_end = -1;
  for (int w = 0; w < 24; ++w) {
    bed.run_for(common::milliseconds(250));
    const std::uint64_t ws = metrics.counter_value(sent_ctr) - prev_sent;
    const std::uint64_t wd =
        metrics.counter_value(delivered_ctr) - prev_delivered;
    prev_sent += ws;
    prev_delivered += wd;
    const double loss =
        ws == 0 ? 0 : 1.0 - static_cast<double>(wd) / static_cast<double>(ws);
    const double ts = common::to_seconds(bed.loop().now() - crash_at);
    if (loss > 0.01) {
      if (loss_start < 0) loss_start = bed.loop().now();
      loss_end = bed.loop().now();
      max_loss = std::max(max_loss, loss);
    }
    t.add_row({benchutil::fmt(ts, 2), benchutil::fmt_pct(loss, 2)});
  }
  t.print();

  const double surge_s =
      loss_start < 0 ? 0 : common::to_seconds(loss_end - loss_start) + 0.25;
  std::printf("\n  Loss surge duration: %.2fs (paper: ≈2s);"
              " peak loss: %s (active-active: ~1/4 of flows)\n",
              surge_s, benchutil::fmt_pct(max_loss).c_str());
  std::printf("  Failover events: %llu; crashes declared: %llu\n",
              static_cast<unsigned long long>(
                  bed.controller().failover_events()),
              static_cast<unsigned long long>(
                  bed.monitor().crashes_declared()));
  benchutil::verdict(surge_s > 0.5 && surge_s < 3.5,
                     "loss surge lasts ≈2s (detection + reconfiguration)");
  benchutil::verdict(max_loss > 0.10 && max_loss < 0.45,
                     "only ~1/#FEs of traffic is affected (active-active)");
  return benchutil::exit_status();
}
