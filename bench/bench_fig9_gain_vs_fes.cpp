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
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"

using namespace nezha;

namespace {

constexpr std::uint32_t kVpc = 7;
constexpr tables::VnicId kServer = 100;
constexpr int kClients = 4;

bool g_clos = false;

core::TestbedConfig testbed_config() {
  core::TestbedConfig cfg;
  if (g_clos) cfg = core::make_clos_testbed_config(40, /*hosts_per_leaf=*/8);
  cfg.num_vswitches = 40;
  // Scaled-down SmartNIC: the shape (gain vs #FEs) is invariant to the
  // absolute CPU scale; this keeps the simulation fast.
  cfg.vswitch.cpu.cores = 2;
  cfg.vswitch.cpu.hz_per_core = 0.25e9;
  // Keep the buffer-in-packets comparable to the full-scale SmartNIC: the
  // queue bound scales inversely with the CPU slow-down.
  cfg.vswitch.cpu.max_queue_delay = common::milliseconds(16);
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.initial_fes = 4;
  return cfg;
}

workload::CpsWorkloadConfig workload_config(int client_index) {
  workload::CpsWorkloadConfig w;
  w.concurrency = 160;  // closed loop (netperf TCP_CRR style)
  w.seed = 100 + static_cast<std::uint64_t>(client_index);
  // Server guest kernel: ~145K CPS ceiling → the 3.3x plateau.
  w.server_kernel = workload::VmKernelConfig{.vcpus = 16,
                                             .cps_per_core = 16500,
                                             .contention = 0.045};
  // Client guests never bottleneck.
  w.client_kernel = workload::VmKernelConfig{.vcpus = 64,
                                             .cps_per_core = 30000};
  return w;
}

/// Measures steady-state CPS with `num_fes` frontends (0 = no Nezha).
double measure_cps(std::size_t num_fes) {
  core::Testbed bed(testbed_config());
  vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 100)};
  server.profile.synthetic_rule_bytes = 8 << 20;
  bed.add_vnic(30, server);  // home on a high id; FEs picked from low ids

  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < kClients; ++c) {
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(c + 1);
    client.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    const std::size_t client_switch = 32 + static_cast<std::size_t>(c);
    bed.add_vnic(client_switch, client);
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, client_switch, client.id, 30, kServer, workload_config(c)));
  }

  if (num_fes > 0) {
    auto st = bed.controller().trigger_offload(kServer, num_fes);
    if (!st.ok()) {
      std::fprintf(stderr, "offload failed: %s\n", st.error().message.c_str());
      return 0;
    }
    bed.run_for(common::seconds(4));  // activation completes
  }
  const common::TimePoint t0 = bed.loop().now();
  for (auto& c : clients) c->start();
  bed.run_for(common::seconds(3));
  for (auto& c : clients) c->stop();

  double cps = 0;
  for (auto& c : clients) {
    // Skip the first second as warm-up.
    cps += c->cps_over(t0 + common::seconds(1), t0 + common::seconds(3));
  }
  return cps;
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
