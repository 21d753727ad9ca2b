// Fig 2: CPU usage of high-CPS VMs and their vSwitches.
// Paper: every high-CPS VM saturates its vSwitch (>95% CPU) while the VMs
// themselves are lightly loaded (90% below 60% CPU) — the resource-gap
// motivation for Nezha.
#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

int main() {
  benchutil::banner(
      "Figure 2 — CPU usage of high-CPS VMs vs their vSwitches",
      "vSwitch CPU > 95% in all cases; 90% of the VMs below 60% CPU");

  workload::FleetModel model(
      workload::FleetModelConfig{.num_vswitches = 10000, .seed = 2});
  const auto pairs = model.sample_high_cps_pairs(10000);

  common::Percentiles vm, vs;
  std::size_t vm_below_60 = 0, vs_above_95 = 0;
  for (const auto& p : pairs) {
    vm.add(p.vm_cpu * 100);
    vs.add(p.vswitch_cpu * 100);
    if (p.vm_cpu < 0.60) ++vm_below_60;
    if (p.vswitch_cpu > 0.95) ++vs_above_95;
  }

  benchutil::Table t({"percentile of high-CPS VMs", "VM CPU (%)",
                      "vSwitch CPU (%)"});
  for (double q : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    t.add_row({"P" + benchutil::fmt(q, 0), benchutil::fmt(vm.percentile(q), 1),
               benchutil::fmt(vs.percentile(q), 1)});
  }
  t.print();

  const double frac_vm = static_cast<double>(vm_below_60) / pairs.size();
  const double frac_vs = static_cast<double>(vs_above_95) / pairs.size();
  std::printf("\n  VMs below 60%% CPU: %s (paper: 90%%)\n",
              benchutil::fmt_pct(frac_vm).c_str());
  std::printf("  vSwitches above 95%% CPU: %s (paper: 100%%)\n",
              benchutil::fmt_pct(frac_vs).c_str());
  benchutil::verdict(frac_vm > 0.85 && frac_vm < 0.95 && frac_vs > 0.999,
                     "high-CPS VMs idle while their vSwitches saturate");
  return benchutil::exit_status();
}
