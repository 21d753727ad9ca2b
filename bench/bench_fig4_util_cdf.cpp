// Fig 4: CPU and memory utilization CDFs over O(10K) vSwitches.
// Paper: CPU avg≈5%, P90 15%, P99 41%, P999 68%, P9999 90% (max 98%);
// memory avg≈1.5%, P90 15%, P99 34%, P999 93%, P9999 96% — extreme load
// imbalance: a few saturated vSwitches amid an idle fleet.
#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

int main() {
  benchutil::banner("Figure 4 — resource utilization CDF on O(10K) vSwitches",
                    "P9999/avg skew: ~20x for CPU, ~64x for memory");

  workload::FleetModel model(
      workload::FleetModelConfig{.num_vswitches = 10000, .seed = 4});
  common::Percentiles cpu, mem;
  for (double v : model.sample_cpu_utilization()) cpu.add(v * 100);
  for (double v : model.sample_memory_utilization()) mem.add(v * 100);

  struct Anchor {
    const char* name;
    double q;
    double paper_cpu;
    double paper_mem;
  };
  const Anchor anchors[] = {{"P50", 50, 2.5, 0.6},   {"P90", 90, 15, 15},
                            {"P99", 99, 41, 34},     {"P999", 99.9, 68, 93},
                            {"P9999", 99.99, 90, 96}, {"max", 100, 98, 96}};

  benchutil::Table t({"quantile", "CPU paper (%)", "CPU measured (%)",
                      "mem paper (%)", "mem measured (%)"});
  for (const auto& a : anchors) {
    t.add_row({a.name, benchutil::fmt(a.paper_cpu, 1),
               benchutil::fmt(cpu.percentile(a.q), 1),
               benchutil::fmt(a.paper_mem, 1),
               benchutil::fmt(mem.percentile(a.q), 1)});
  }
  t.add_row({"avg", "5.0", benchutil::fmt(cpu.mean(), 1), "1.5",
             benchutil::fmt(mem.mean(), 1)});
  t.print();

  const double cpu_skew = cpu.percentile(99.99) / cpu.mean();
  const double mem_skew = mem.percentile(99.99) / mem.mean();
  std::printf("\n  P9999/avg skew: CPU %.1fx (paper ~20x), memory %.1fx"
              " (paper ~64x)\n", cpu_skew, mem_skew);
  benchutil::verdict(cpu.percentile(99.99) > 80 && cpu.mean() < 10 &&
                         mem.percentile(99.9) > 80 && mem_skew > 15,
                     "most vSwitches idle, a tiny tail saturated");
  return benchutil::exit_status();
}
