// Fig 15 (+ §7.1): average semantic state size per service in a region.
// Paper: the fixed allocation is 64B per session, but the average *used*
// state is only 5–8B; variable-length states could improve #concurrent
// flows by up to 8x (64B / 8B).
//
// We drive four service mixes through live vSwitches and census
// SessionState::used_bytes() over the resulting session tables.
#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/tables/prefix.h"

using namespace nezha;

namespace {

constexpr std::uint32_t kVpc = 7;

struct ServiceResult {
  double avg_used = 0;
  std::size_t sessions = 0;
};

/// Runs `flows` TCP flows of the given service shape through a fresh
/// testbed and returns the state-size census at the server vSwitch.
ServiceResult run_service(bool stats_policy, bool stateful_decap,
                          bool established) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 4;
  cfg.controller.auto_offload = false;
  core::Testbed bed(cfg);
  vswitch::VnicConfig server;
  server.id = 100;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 100)};
  bed.add_vnic(1, server, stateful_decap);
  vswitch::VnicConfig client;
  client.id = 1;
  client.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 1, 1)};
  bed.add_vnic(0, client);
  if (stats_policy) {
    auto* rules = bed.vswitch(1).vnic(100)->rules();
    rules->stats_policy().add_policy(tables::Prefix::any(),
                                     flow::StatsMode::kPacketsAndBytes);
    rules->commit_update();
  }

  constexpr int kFlows = 500;
  for (int f = 0; f < kFlows; ++f) {
    net::FiveTuple ft{client.addr.ip, server.addr.ip,
                      static_cast<std::uint16_t>(10000 + f), 80,
                      net::IpProto::kTcp};
    bed.vswitch(0).from_vm(
        1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0, kVpc));
    if (established) {
      bed.run_for(common::microseconds(100));
      bed.vswitch(1).from_vm(100, net::make_tcp_packet(
                                      ft.reversed(),
                                      net::TcpFlags{.syn = true, .ack = true},
                                      0, kVpc));
      bed.run_for(common::microseconds(100));
      bed.vswitch(0).from_vm(
          1, net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 120, kVpc));
    }
  }
  bed.run_for(common::milliseconds(20));

  ServiceResult r;
  common::Summary used;
  bed.vswitch(1).sessions().for_each(
      [&](const flow::SessionKey&, const flow::SessionEntry& e) {
        used.add(static_cast<double>(e.state.used_bytes()));
      });
  r.avg_used = used.mean();
  r.sessions = used.count();
  return r;
}

}  // namespace

int main() {
  benchutil::banner("Figure 15 — average state size in a region",
                    "avg used state 5–8B vs a fixed 64B allocation; "
                    "variable-length states could gain up to 8x (§7.1)");

  struct Service {
    const char* name;
    bool stats;
    bool decap;
    bool established;
  };
  const Service services[] = {
      {"plain-forwarding (embryonic)", false, false, false},
      {"stateful-acl web", false, false, true},
      {"real-server behind LB (decap)", false, true, true},
      {"metered tenant (flow stats)", true, false, true},
  };

  benchutil::Table t({"service", "sessions", "avg used state (B)",
                      "allocated (B)"});
  common::Summary overall;
  for (const auto& s : services) {
    const ServiceResult r = run_service(s.stats, s.decap, s.established);
    overall.add(r.avg_used);
    t.add_row({s.name, std::to_string(r.sessions),
               benchutil::fmt(r.avg_used, 1),
               std::to_string(flow::kStateAllocBytes)});
  }
  t.print();

  const double avg = overall.mean();
  const double potential = static_cast<double>(flow::kStateAllocBytes) / avg;
  std::printf("\n  Region-wide average used state: %.1fB (paper: 5–8B);"
              " potential #flows gain from variable-length states: %.1fx"
              " (paper: up to 8x)\n", avg, potential);
  benchutil::verdict(avg >= 2.0 && avg <= 12.0,
                     "used state is an order of magnitude below the 64B "
                     "allocation");
  benchutil::verdict(potential >= 5.0, "variable-length states buy ≥5x");
  return benchutil::exit_status();
}
