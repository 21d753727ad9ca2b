// Fig 3 (and Appendix A.1): distribution of vSwitch overload causes.
// Paper: CPS ≈ 61%, #concurrent flows ≈ 30%, #vNICs ≈ 9%.
#include "bench/bench_util.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

int main() {
  benchutil::banner("Figure 3 — hotspot cause distribution in a region",
                    "CPS 61%, #concurrent flows 30%, #vNICs 9%");

  workload::FleetModel model(workload::FleetModelConfig{.seed = 3});
  const std::size_t n = 50000;
  const auto causes = model.sample_hotspot_causes(n);
  std::size_t counts[3] = {0, 0, 0};
  for (auto c : causes) ++counts[static_cast<int>(c)];

  benchutil::Table t({"cause", "paper", "measured"});
  const double paper[3] = {0.61, 0.30, 0.09};
  bool ok = true;
  for (int i = 0; i < 3; ++i) {
    const double measured = static_cast<double>(counts[i]) / n;
    t.add_row({to_string(static_cast<workload::HotspotCause>(i)),
               benchutil::fmt_pct(paper[i], 0), benchutil::fmt_pct(measured)});
    ok = ok && std::abs(measured - paper[i]) < 0.02;
  }
  t.print();
  benchutil::verdict(ok, "CPS dominates overloads, #vNICs rarest");
  return benchutil::exit_status();
}
