// Fig 13: daily vSwitch overload occurrences before/after Nezha, per cause,
// in two regions.
// Paper: >99.9% of CPS and #concurrent-flows overloads resolved; #vNICs
// overloads eliminated entirely (rule tables are created directly on FEs).
// The small residue exists because offload activation takes up to ~2.8s
// (P999) while some load surges overwhelm the vSwitch faster than that.
#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

int main() {
  benchutil::banner("Figure 13 — daily overload occurrence before/after Nezha",
                    ">99.9% of CPS/#flow overloads resolved; #vNICs → 0");

  workload::FleetModel fleet(workload::FleetModelConfig{.seed = 13});
  common::Rng rng(14);

  // Activation-race model: an overload is NOT prevented only when the load
  // surge saturates the vSwitch faster than offload activation completes.
  // Activation: lognormal matching Table 4 (avg ~1.1s, P999 ~2.9s).
  // Surge ramp: how long the vSwitch can still absorb load after the
  // trigger fires — minutes for organic growth, seconds for flash crowds.
  auto activation_s = [&]() { return rng.lognormal(0.02, 0.33); };
  // Load surges in production build over tens of seconds to minutes
  // (clients ramping, retry storms); sub-3s cliff-edge surges are the rare
  // tail that produces the residual overloads in Fig 13.
  auto surge_headroom_s = [&]() { return rng.lognormal(4.1, 1.35); };

  const char* regions[] = {"region-A", "region-B"};
  const int daily_overloads[2] = {9000, 4800};  // before-Nezha daily events

  benchutil::Table t({"region", "cause", "before (daily)", "after (daily)",
                      "resolved"});
  bool all_ok = true;
  for (int r = 0; r < 2; ++r) {
    const auto causes = fleet.sample_hotspot_causes(
        static_cast<std::size_t>(daily_overloads[r]));
    int before[3] = {0, 0, 0}, after[3] = {0, 0, 0};
    for (auto c : causes) {
      const int k = static_cast<int>(c);
      ++before[k];
      if (c == workload::HotspotCause::kVnics) {
        // vNIC rule tables are created directly on the FEs — no race at all.
        continue;
      }
      if (activation_s() > surge_headroom_s()) ++after[k];
    }
    for (int k = 0; k < 3; ++k) {
      const double resolved =
          before[k] == 0 ? 1.0
                         : 1.0 - static_cast<double>(after[k]) / before[k];
      t.add_row({regions[r],
                 to_string(static_cast<workload::HotspotCause>(k)),
                 std::to_string(before[k]), std::to_string(after[k]),
                 benchutil::fmt_pct(resolved, 2)});
      if (k < 2) all_ok = all_ok && resolved > 0.995;
      else all_ok = all_ok && after[k] == 0;
    }
  }
  t.print();
  benchutil::verdict(all_ok,
                     ">99.5% of CPS/#flows overloads mitigated, #vNICs "
                     "overloads eliminated");
  return benchutil::exit_status();
}
