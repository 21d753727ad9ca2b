// Ablation: session-consistent vs per-direction FE hashing (§3.2.3).
//
// Nezha's state/table decoupling makes BOTH legal: because the session
// state lives only at the BE, the two directions of a flow may hash to
// different FEs with no correctness impact. This ablation quantifies the
// cost of exercising that freedom: splitting directions runs the rule
// chain once per direction (double slow-path work) and stores the cached
// flow twice (double FE cache memory), exactly the "cache friendliness"
// concern the paper raises for packet-level balancing.
#include "bench/bench_util.h"
#include "src/core/testbed.h"
#include "src/workload/cps_workload.h"

using namespace nezha;

namespace {

constexpr std::uint32_t kVpc = 7;
constexpr tables::VnicId kServer = 100;
constexpr int kClients = 4;

struct Result {
  double cps = 0;
  std::uint64_t fe_chain_runs = 0;
  std::uint64_t completed = 0;
  std::size_t fe_cache_entries = 0;
  double chains_per_conn() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(fe_chain_runs) /
                                static_cast<double>(completed);
  }
};

Result run(bool session_consistent) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 40;
  cfg.vswitch.cpu.cores = 2;
  cfg.vswitch.cpu.hz_per_core = 0.25e9;
  cfg.vswitch.cpu.max_queue_delay = common::milliseconds(16);
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.vswitch.session_consistent_fe_hash = session_consistent;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);

  vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 100)};
  bed.add_vnic(30, server);
  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (int c = 0; c < kClients; ++c) {
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(c + 1);
    client.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1))};
    bed.add_vnic(32 + static_cast<std::size_t>(c), client);
    workload::CpsWorkloadConfig w;
    w.concurrency = 160;
    w.seed = 400 + static_cast<std::uint64_t>(c);
    w.server_kernel = workload::VmKernelConfig{
        .vcpus = 16, .cps_per_core = 16500, .contention = 0.045};
    w.client_kernel =
        workload::VmKernelConfig{.vcpus = 64, .cps_per_core = 30000};
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, 32 + static_cast<std::size_t>(c), client.id, 30, kServer, w));
  }

  (void)bed.controller().trigger_offload(kServer, 4);
  bed.run_for(common::seconds(4));
  const common::TimePoint t0 = bed.loop().now();
  for (auto& c : clients) c->start();
  bed.run_for(common::seconds(2));
  for (auto& c : clients) c->stop();

  Result r;
  for (auto& c : clients) {
    r.cps += c->cps_over(t0 + common::milliseconds(500), t0 + common::seconds(2));
    r.completed += c->completed();
  }
  for (sim::NodeId n : bed.controller().fe_nodes_of(kServer)) {
    r.fe_chain_runs += bed.vswitch(n).slow_path_lookups();
    if (auto* fe = bed.vswitch(n).frontend(kServer)) {
      r.fe_cache_entries += fe->flow_cache.size();
    }
  }
  return r;
}

}  // namespace

int main() {
  benchutil::banner("Ablation — FE hashing: session-consistent vs "
                    "per-direction (§3.2.3)",
                    "splitting directions across FEs is legal under Nezha "
                    "but doubles rule lookups and cached-flow memory");

  const Result consistent = run(true);
  const Result split = run(false);

  benchutil::Table t({"FE hash", "CPS (4 FEs)", "chains/conn",
                      "FE cache entries"});
  t.add_row({"session-consistent", benchutil::fmt_si(consistent.cps),
             benchutil::fmt(consistent.chains_per_conn(), 2),
             std::to_string(consistent.fe_cache_entries)});
  t.add_row({"per-direction", benchutil::fmt_si(split.cps),
             benchutil::fmt(split.chains_per_conn(), 2),
             std::to_string(split.fe_cache_entries)});
  t.print();

  const double chain_ratio =
      split.chains_per_conn() / consistent.chains_per_conn();
  std::printf("\n  Chains per connection (split / consistent): %.2f"
              " (expected ≈2: one chain per direction)\n", chain_ratio);
  benchutil::verdict(chain_ratio > 1.6,
                     "per-direction hashing roughly doubles slow-path work");
  benchutil::verdict(consistent.cps >= split.cps * 0.95,
                     "session-consistent hashing never loses throughput");
  return benchutil::exit_status();
}
