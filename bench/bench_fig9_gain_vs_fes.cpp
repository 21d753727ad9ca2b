// Fig 9: performance gain under different #FEs (auto-scaling disabled).
// Paper: CPS gain grows with #FEs up to 4, then plateaus ≈3.3x (the VM
// kernel becomes the bottleneck); #concurrent-flows gain plateaus ≈3.8x;
// #vNICs gain is proportional to #FEs (theoretical cap 1000x = 2MB/2KB).
//
// CPS is measured by running the full packet-level TCP_CRR workload through
// the simulated testbed at each FE count; the memory capacities use the
// calibrated capacity model (same constants as the dataplane).
#include "bench/bench_util.h"
#include "src/baseline/capacity_model.h"
#include "support/scenarios.h"

using namespace nezha;

namespace {

bool g_clos = false;

/// Measures steady-state CPS with `num_fes` frontends (0 = no Nezha).
double measure_cps(std::size_t num_fes) {
  // Server guest kernel: ~145K CPS ceiling → the 3.3x plateau.
  support::CpsBed s = support::hot_server_bed(
      support::hot_server_config(g_clos),
      {.server_vcpus = 16, .concurrency = 160, .seed_base = 100});
  // Skip the first second as warm-up.
  return support::run_hot_server(s, num_fes, common::seconds(1),
                                 common::seconds(3));
}

}  // namespace

int main(int argc, char** argv) {
  g_clos = benchutil::has_flag(argc, argv, "--clos");
  benchutil::banner(std::string("Figure 9 — performance gain vs #FEs") +
                        (g_clos ? " [Clos fabric]" : " [single rack]"),
                    "CPS plateaus ≈3.3x above 4 FEs (VM-bound); #flows "
                    "plateaus ≈3.8x; #vNICs ∝ #FEs");

  const double base_cps = measure_cps(0);
  baseline::DeploymentParams p;
  const double base_flows =
      static_cast<double>(baseline::CapacityModel::local_max_flows(p));
  const double base_vnics =
      static_cast<double>(baseline::CapacityModel::local_max_vnics(p));

  benchutil::Table t({"#FEs", "CPS", "CPS gain", "#flows gain",
                      "#vNICs gain"});
  double cps4 = 0, cps12 = 0;
  double flows4 = 0, flows12 = 0;
  for (std::size_t fes : {0, 1, 2, 4, 8, 12}) {
    const double cps = fes == 0 ? base_cps : measure_cps(fes);
    const double flows = static_cast<double>(
        baseline::CapacityModel::nezha_max_flows(p, fes));
    const double vnics = static_cast<double>(
        baseline::CapacityModel::nezha_max_vnics(p, fes));
    if (fes == 4) { cps4 = cps; flows4 = flows; }
    if (fes == 12) { cps12 = cps; flows12 = flows; }
    t.add_row({std::to_string(fes), benchutil::fmt_si(cps),
               benchutil::fmt(cps / base_cps, 2) + "x",
               benchutil::fmt(flows / base_flows, 2) + "x",
               benchutil::fmt(vnics / base_vnics, 1) + "x"});
  }
  t.print();

  const double plateau_gain = cps12 / base_cps;
  std::printf("\n  CPS plateau gain: %.2fx (paper ≈3.3x); 12-FE vs 4-FE"
              " CPS ratio: %.2f (paper ≈1.0 — VM-bound)\n",
              plateau_gain, cps12 / cps4);
  benchutil::verdict(plateau_gain > 2.5 && plateau_gain < 4.5 &&
                         cps12 / cps4 < 1.15,
                     "CPS gain saturates ≈3.3x beyond 4 FEs");
  benchutil::verdict(flows12 / base_flows > 3.0 && flows12 == flows4,
                     "#flows gain plateaus ≈3.8x at 4 FEs (BE-memory bound)");
  return benchutil::exit_status();
}
