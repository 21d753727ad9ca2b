// Table 4: completion time for activating offloading (trigger → all
// traffic forwarded through the FEs).
// Paper: avg 1077ms, P90 1503ms, P99 2087ms, P999 2858ms.
//
// We run thousands of offload events through the controller's actual
// workflow (FE config pushes, BE config, gateway update, learning interval)
// on a fleet testbed and report the recorded activation distribution.
#include "bench/bench_util.h"
#include "src/core/testbed.h"
#include "support/scenarios.h"

using namespace nezha;

int main() {
  benchutil::banner("Table 4 — completion time for activating offloading",
                    "avg 1077ms, P90 1503ms, P99 2087ms, P999 2858ms");

  // A fleet big enough to host many independent offloads.
  core::TestbedConfig cfg;
  cfg.num_vswitches = 64;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.vswitch.rule_memory_bytes = 64ull << 30;  // never the limiting factor
  core::Testbed bed(cfg);

  constexpr int kEvents = 4000;
  for (int i = 0; i < kEvents; ++i) {
    const vswitch::VnicConfig v = support::numbered_vnic(i);
    const std::size_t home = i % bed.size();
    bed.add_vnic(home, v);
    auto st = bed.controller().trigger_offload(v.id);
    if (!st.ok()) {
      std::printf("offload %d failed: %s\n", i, st.error().message.c_str());
      return 1;
    }
    bed.run_for(common::seconds(5));  // let the workflow finish
  }

  const auto& completion = bed.controller().offload_completion();
  benchutil::Table t({"statistic", "paper (ms)", "measured (ms)"});
  t.add_row({"avg", "1077", benchutil::fmt(completion.mean(), 0)});
  t.add_row({"P90", "1503", benchutil::fmt(completion.percentile(90), 0)});
  t.add_row({"P99", "2087", benchutil::fmt(completion.percentile(99), 0)});
  t.add_row({"P999", "2858", benchutil::fmt(completion.percentile(99.9), 0)});
  t.print();

  benchutil::verdict(completion.mean() > 600 && completion.mean() < 1600 &&
                         completion.percentile(99) < 3500,
                     "activation ≈1s average, ≈2s P99 (seconds, not minutes)");
  std::printf("  (%d offload events simulated)\n", kEvents);
  return benchutil::exit_status();
}
