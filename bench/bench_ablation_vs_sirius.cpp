// Ablation: Nezha's state-decoupled pool vs a Sirius-style stateful pool.
//
// Two architectural taxes of keeping state in the remote pool (§2.3.3, §8):
//  1) In-line replication (ping-pong between primary/secondary card) halves
//     the pool's new-connection capacity.
//  2) Load rebalancing requires state transfer for long-lived flows; Nezha
//     rebalances with zero state movement (a moved flow just re-executes
//     one rule lookup at the new FE, ~10µs).
#include "bench/bench_util.h"
#include "src/baseline/capacity_model.h"
#include "src/baseline/sirius_model.h"
#include "src/common/rng.h"

using namespace nezha;

int main() {
  benchutil::banner("Ablation — Nezha vs Sirius-style stateful pool",
                    "in-line replication halves pool CPS; bucket moves "
                    "transfer long-lived state, Nezha moves none");

  // --- CPS capacity of an N-node pool, equal per-node capability ---
  baseline::DeploymentParams p;
  p.vm_kernel_cps_limit = 1e12;  // isolate the pool term
  const double per_node_cps =
      baseline::kVswitchCyclesPerSec / baseline::kConnCyclesFe;
  benchutil::Table t({"#pool nodes", "Nezha pool CPS", "Sirius pool CPS",
                      "Nezha / Sirius"});
  bool cps_ok = true;
  for (std::size_t n : {2ul, 4ul, 8ul, 16ul}) {
    const double nezha = baseline::CapacityModel::nezha_cps(p, n);
    const double sirius = baseline::SiriusModel::effective_cps(per_node_cps, n);
    // Beyond ~6 nodes Nezha's BE (single state owner) becomes its own
    // ceiling; the replication tax comparison applies while the pool term
    // dominates.
    if (n <= 4) cps_ok = cps_ok && nezha > 1.8 * sirius;
    t.add_row({std::to_string(n), benchutil::fmt_si(nezha),
               benchutil::fmt_si(sirius), benchutil::fmt(nezha / sirius, 2)});
  }
  t.print();
  benchutil::verdict(cps_ok,
                     "active-active stateless pool ≈2x the ping-pong "
                     "replicated pool (while pool-bound; Nezha's own BE "
                     "ceiling appears at large N)");

  // --- state transfer under load rebalancing ---
  baseline::SiriusModel sirius(4, 64);
  common::Rng rng(55);
  std::size_t long_lived = 0;
  constexpr int kFlows = 20000;
  for (int i = 0; i < kFlows; ++i) {
    net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                      net::Ipv4Addr(10, rng.uniform_u64(0, 255) & 0xff,
                                    rng.uniform_u64(0, 255) & 0xff, 2),
                      static_cast<std::uint16_t>(rng.uniform_u64(1024, 65535)),
                      443, net::IpProto::kTcp};
    const bool ll = rng.chance(0.2);  // 20% long-lived
    if (ll) ++long_lived;
    sirius.flow_started(ft, ll);
  }
  std::uint64_t transfers = 0;
  for (int round = 0; round < 8; ++round) transfers += sirius.rebalance(4);

  benchutil::Table t2({"metric", "Sirius", "Nezha"});
  t2.add_row({"live flows", std::to_string(sirius.live_flows()),
              std::to_string(kFlows)});
  t2.add_row({"state transfers over 8 rebalances", std::to_string(transfers),
              "0"});
  t2.add_row({"per-moved-flow cost", "state snapshot + transfer + sync",
              "one rule-table lookup (~10us)"});
  t2.print();
  benchutil::verdict(transfers > 0,
                     "the stateful pool cannot rebalance long-lived flows "
                     "without state transfer");
  std::printf("  (%zu of %d flows long-lived; Nezha keeps state at the BE "
              "in one copy, so rebalancing moves nothing)\n",
              long_lived, kFlows);
  return benchutil::exit_status();
}
