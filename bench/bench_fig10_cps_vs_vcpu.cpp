// Fig 10: CPS under different #vCPU cores in the VM, with/without Nezha.
// Paper: without Nezha the vSwitch caps CPS regardless of VM size; with
// Nezha CPS grows with vCPUs but sublinearly — VM kernel locks and
// connection-management limits now bind.
#include "bench/bench_util.h"
#include "support/scenarios.h"

using namespace nezha;

namespace {

double measure_cps(int server_vcpus, bool with_nezha) {
  support::CpsBed s = support::hot_server_bed(
      support::hot_server_config(/*clos=*/false),
      {.server_vcpus = server_vcpus, .concurrency = 160, .seed_base = 200});
  return support::run_hot_server(s, with_nezha ? 8 : 0, common::seconds(1),
                                 common::seconds(3));
}

}  // namespace

int main() {
  benchutil::banner("Figure 10 — CPS vs #vCPU cores in the VM",
                    "without Nezha: flat (vSwitch-bound); with Nezha: grows "
                    "sublinearly (VM kernel-bound)");

  benchutil::Table t({"#vCPUs", "CPS w/o Nezha", "CPS w/ Nezha",
                      "w/ / w/o"});
  double base8 = 0, base64 = 0, nezha8 = 0, nezha64 = 0;
  for (int vcpus : {8, 16, 32, 48, 64}) {
    const double without = measure_cps(vcpus, false);
    const double with = measure_cps(vcpus, true);
    if (vcpus == 8) { base8 = without; nezha8 = with; }
    if (vcpus == 64) { base64 = without; nezha64 = with; }
    t.add_row({std::to_string(vcpus), benchutil::fmt_si(without),
               benchutil::fmt_si(with), benchutil::fmt(with / without, 2) + "x"});
  }
  t.print();

  const double without_growth = base64 / base8;
  const double with_growth = nezha64 / nezha8;
  std::printf("\n  CPS growth 8→64 vCPUs: w/o Nezha %.2fx (paper: ~flat),"
              " w/ Nezha %.2fx (paper: sublinear, <8x)\n",
              without_growth, with_growth);
  benchutil::verdict(without_growth < 1.2, "without Nezha the vSwitch caps "
                                           "CPS regardless of VM size");
  benchutil::verdict(with_growth > 1.5 && with_growth < 8.0,
                     "with Nezha CPS follows the VM but sublinearly "
                     "(kernel locks)");
  return benchutil::exit_status();
}
