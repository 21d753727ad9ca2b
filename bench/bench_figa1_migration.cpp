// Fig A1 (+ §7.2): VM live-migration downtime vs VM size, against Nezha's
// alternative for offloaded vNICs (updating the BE location on the FEs).
// Paper: migration downtime/completion grow with vCPUs and memory — tens of
// minutes for a 1TB VM — while Nezha's BE re-pointing takes effect in <1ms
// and remote offloading reaches full effect in ~2s (P99) regardless of size.
#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/workload/migration_model.h"

using namespace nezha;

int main() {
  benchutil::banner("Figure A1 — VM migration downtime vs VM resources",
                    "downtime grows with vCPU/memory; Nezha redirect is O(1)");

  workload::MigrationModel model;
  common::Rng rng(41);

  benchutil::Table t({"vCPUs", "memory (GB)", "migration downtime (ms)",
                      "migration completion (s)"});
  struct Shape {
    int vcpus;
    double mem_gb;
  };
  const Shape shapes[] = {{8, 32},   {16, 64},   {32, 128},
                          {64, 256}, {96, 512},  {128, 1024}};
  double smallest = 0, largest = 0;
  double completion_1tb = 0;
  for (const auto& s : shapes) {
    common::Summary down, comp;
    for (int i = 0; i < 500; ++i) {
      down.add(common::to_millis(model.downtime(s.vcpus, s.mem_gb, rng)));
      comp.add(common::to_seconds(model.completion_time(s.mem_gb, rng)));
    }
    if (s.mem_gb == 32) smallest = down.mean();
    if (s.mem_gb == 1024) {
      largest = down.mean();
      completion_1tb = comp.mean();
    }
    t.add_row({std::to_string(s.vcpus), benchutil::fmt(s.mem_gb, 0),
               benchutil::fmt(down.mean(), 0), benchutil::fmt(comp.mean(), 0)});
  }
  t.print();

  // Nezha's alternative, measured on the live testbed: migrate_backend.
  core::TestbedConfig cfg;
  cfg.num_vswitches = 12;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);
  vswitch::VnicConfig v;
  v.id = 1;
  v.addr = tables::OverlayAddr{7, net::Ipv4Addr(10, 0, 0, 1)};
  bed.add_vnic(0, v);
  (void)bed.controller().trigger_offload(1);
  bed.run_for(common::seconds(4));
  const common::TimePoint t0 = bed.loop().now();
  (void)bed.controller().migrate_backend(1, &bed.vswitch(9));
  const double redirect_ms = common::to_millis(bed.loop().now() - t0);

  std::printf("\n  Nezha BE re-pointing (any VM size): %.3fms"
              " (paper: <1ms)\n", redirect_ms);
  std::printf("  1TB VM migration completion: %.0fs (paper: tens of"
              " minutes)\n", completion_1tb);
  benchutil::verdict(largest > smallest * 3 && redirect_ms < 1.0 &&
                         completion_1tb > 600,
                     "migration cost scales with VM size; Nezha redirect "
                     "does not");
  return benchutil::exit_status();
}
