// Fig 10: CPS under different #vCPU cores in the VM, with/without Nezha.
// Paper: without Nezha the vSwitch caps CPS regardless of VM size; with
// Nezha CPS grows with vCPUs but sublinearly — VM kernel locks and
// connection-management limits now bind.
#include "bench/bench_util.h"
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"

using namespace nezha;

namespace {

constexpr std::uint32_t kVpc = 7;
constexpr tables::VnicId kServer = 100;
constexpr int kClients = 4;

double measure_cps(int server_vcpus, bool with_nezha) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 40;
  cfg.vswitch.cpu.cores = 2;
  cfg.vswitch.cpu.hz_per_core = 0.25e9;
  // Keep the buffer-in-packets comparable to the full-scale SmartNIC: the
  // queue bound scales inversely with the CPU slow-down.
  cfg.vswitch.cpu.max_queue_delay = common::milliseconds(16);
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);

  vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 100)};
  server.profile.synthetic_rule_bytes = 8 << 20;
  bed.add_vnic(30, server);

  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < kClients; ++c) {
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(c + 1);
    client.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    const std::size_t client_switch = 32 + static_cast<std::size_t>(c);
    bed.add_vnic(client_switch, client);
    workload::CpsWorkloadConfig w;
    w.concurrency = 160;  // closed loop (netperf TCP_CRR style)
    w.seed = 200 + static_cast<std::uint64_t>(c);
    w.server_kernel = workload::VmKernelConfig{
        .vcpus = server_vcpus, .cps_per_core = 16500, .contention = 0.045};
    w.client_kernel =
        workload::VmKernelConfig{.vcpus = 64, .cps_per_core = 30000};
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, client_switch, client.id, 30, kServer, w));
  }

  if (with_nezha) {
    (void)bed.controller().trigger_offload(kServer, 8);
    bed.run_for(common::seconds(4));
  }
  const common::TimePoint t0 = bed.loop().now();
  for (auto& c : clients) c->start();
  bed.run_for(common::seconds(3));
  for (auto& c : clients) c->stop();
  double cps = 0;
  for (auto& c : clients) {
    cps += c->cps_over(t0 + common::seconds(1), t0 + common::seconds(3));
  }
  return cps;
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
