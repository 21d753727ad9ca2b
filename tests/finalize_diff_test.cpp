// Differential test of the two finalization sites (DESIGN.md §4, stage
// map): the same flows through one vNIC processed locally and through the
// same vNIC offloaded to FEs must leave the vSwitches the same way. Each
// seed draws a rule set for the vNIC under test from: a stateful ACL per
// direction (inbound denied, outbound denied to a port range), an SNAT
// pool, a policy-route next hop, a mirror collector, and QoS that admits
// everything or drops everything. Compared: the inner tuples each VM
// receives (after NAT), the node each policy-routed packet reaches, the
// copies at the collector, and the datapath's drops per counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/core/testbed.h"
#include "src/tables/prefix.h"
#include "src/vswitch/vswitch.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;

constexpr std::uint32_t kVpc = 17;
constexpr VnicId kPeerVnic = 1;     // on vSwitch 0, always local
constexpr VnicId kSubjectVnic = 2;  // on vSwitch 1, local or offloaded
constexpr sim::NodeId kRouteNode = 10;
constexpr sim::NodeId kCollectorNode = 11;
constexpr int kFlows = 24;
constexpr std::uint16_t kServicePorts[] = {22, 80, 443, 8080};

const net::Ipv4Addr kPeerIp(10, 0, 0, 1);
const net::Ipv4Addr kSubjectIp(10, 0, 0, 2);

struct RuleSet {
  bool deny_inbound = false;
  bool deny_outbound_ports = false;
  tables::PortRange denied_ports;
  bool nat = false;
  bool route = false;
  bool mirror = false;
  std::uint32_t qos_kbps = 0;  // 0: none; 1: drops every packet here
};

RuleSet draw_rules(std::uint64_t seed) {
  common::Rng rng(seed);
  RuleSet r;
  r.deny_inbound = rng.chance(0.5);
  r.deny_outbound_ports = rng.chance(0.5);
  const auto lo = static_cast<std::uint16_t>(rng.uniform_u64(0, 3));
  const auto hi = static_cast<std::uint16_t>(rng.uniform_u64(lo, 3));
  r.denied_ports = tables::PortRange{kServicePorts[lo], kServicePorts[hi]};
  r.nat = rng.chance(0.5);
  r.route = rng.chance(0.4);
  r.mirror = rng.chance(0.5);
  // Every packet here carries 100 payload bytes (1,232 bits or more), so
  // 1 kbps (a 1,000-bit burst) drops them all, locally and at an FE. A
  // partial rate would diverge: an FE's QoS also counts the BE's overlay
  // and carrier bytes.
  const std::uint64_t qos = rng.uniform_u64(0, 2);
  r.qos_kbps = qos == 0 ? 0 : qos == 1 ? 10'000'000 : 1;
  return r;
}

/// One flow: who opens it, and its tuple as the subject vNIC sends it.
struct Flow {
  bool subject_opens;
  net::FiveTuple tx;  // subject → peer orientation
};

std::vector<Flow> draw_flows(std::uint64_t seed) {
  common::Rng rng(seed ^ 0xf10f);
  std::vector<Flow> flows;
  for (int i = 0; i < kFlows; ++i) {
    const std::uint16_t service = kServicePorts[rng.uniform_u64(0, 3)];
    flows.push_back(Flow{
        rng.chance(0.5),
        net::FiveTuple{kSubjectIp, kPeerIp,
                       static_cast<std::uint16_t>(30000 + i), service,
                       net::IpProto::kTcp}});
  }
  return flows;
}

struct Outcome {
  std::vector<net::FiveTuple> at_peer;     // inner tuples the peer VM got
  std::vector<net::FiveTuple> at_subject;  // ... and the subject VM
  std::vector<net::FiveTuple> routed;      // data packets at kRouteNode
  std::vector<net::FiveTuple> tx_copies;   // collector copies, TX side
  std::vector<net::FiveTuple> rx_copies;   // collector copies, RX side
  std::vector<net::FiveTuple> rx_sent;     // every packet the peer sent
  std::map<std::string, std::uint64_t> drops;  // per counter, see run()
};

Outcome run(const RuleSet& rules, const std::vector<Flow>& flows,
            bool offload) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 12;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);

  vswitch::VnicConfig peer;
  peer.id = kPeerVnic;
  peer.addr = OverlayAddr{kVpc, kPeerIp};
  peer.profile.synthetic_rule_bytes = 1 << 20;
  vswitch::VnicConfig subject;
  subject.id = kSubjectVnic;
  subject.addr = OverlayAddr{kVpc, kSubjectIp};
  subject.profile.synthetic_rule_bytes = 1 << 20;
  bed.add_vnic(0, peer);
  bed.add_vnic(1, subject);

  Outcome out;
  bed.vswitch(0).set_vm_delivery([&out](VnicId, const net::Packet& p) {
    out.at_peer.push_back(p.inner.ft);
  });
  bed.vswitch(1).set_vm_delivery([&out](VnicId, const net::Packet& p) {
    out.at_subject.push_back(p.inner.ft);
  });
  const tables::Location route = bed.vswitch(kRouteNode).location();
  const tables::Location collector = bed.vswitch(kCollectorNode).location();
  bed.network().set_trace([&](common::TimePoint, const net::Packet& p,
                              sim::NodeId, sim::NodeId to) {
    // Data packets only: BE-FE traffic carries a carrier header.
    if (!p.encapsulated() || p.carrier) return;
    if (to == kRouteNode && p.overlay->dst_ip == route.ip) {
      out.routed.push_back(p.inner.ft);
    } else if (to == kCollectorNode && p.overlay->dst_ip == collector.ip) {
      (p.inner.ft.src_ip == kSubjectIp ? out.tx_copies : out.rx_copies)
          .push_back(p.inner.ft);
    }
  });

  tables::RuleTableSet* set = bed.vswitch(1).vnic(kSubjectVnic)->rules();
  if (rules.deny_inbound) {
    tables::AclRule deny;
    deny.priority = 10;
    deny.direction = flow::Direction::kRx;
    deny.verdict = flow::Verdict::kDrop;
    set->acl().add_rule(deny);
  }
  if (rules.deny_outbound_ports) {
    tables::AclRule deny;
    deny.priority = 5;
    deny.dst_ports = rules.denied_ports;
    deny.direction = flow::Direction::kTx;
    deny.verdict = flow::Verdict::kDrop;
    set->acl().add_rule(deny);
  }
  if (rules.nat) {
    set->nat().add_pool(tables::Prefix::host(kPeerIp),
                        tables::NatTable::Pool{net::Ipv4Addr(100, 64, 0, 1),
                                               2048, 4, 1000});
  }
  if (rules.route) {
    set->policy_routes().add_override(tables::Prefix::host(kPeerIp),
                                      flow::NextHop{route.ip, route.mac});
  }
  if (rules.mirror) {
    set->mirrors().add_mirror(tables::Prefix::host(kPeerIp),
                              flow::NextHop{collector.ip, collector.mac});
  }
  if (rules.qos_kbps != 0) set->qos().set_default_rate_kbps(rules.qos_kbps);
  set->commit_update();

  if (offload) {
    EXPECT_TRUE(bed.controller().trigger_offload(kSubjectVnic).ok());
  }
  bed.run_for(seconds(4));
  if (offload) {
    EXPECT_EQ(bed.vswitch(1).vnic(kSubjectVnic)->mode(),
              vswitch::VnicMode::kOffloaded);
    // The observation points must not double as FEs.
    for (sim::NodeId n : bed.controller().fe_nodes_of(kSubjectVnic)) {
      EXPECT_NE(n, kRouteNode);
      EXPECT_NE(n, kCollectorNode);
    }
  }

  // Handshake plus one data packet per flow; steps are 20 ms apart, well
  // past any BE-FE detour, so each flow's packets stay in order.
  const net::TcpFlags steps[] = {{.syn = true},
                                 {.syn = true, .ack = true},
                                 {.ack = true},
                                 {.ack = true}};
  for (int step = 0; step < 4; ++step) {
    for (const Flow& f : flows) {
      const bool subject_sends = (step % 2 == 0) == f.subject_opens;
      if (subject_sends) {
        bed.vswitch(1).from_vm(
            kSubjectVnic, net::make_tcp_packet(f.tx, steps[step], 100, kVpc));
      } else {
        out.rx_sent.push_back(f.tx.reversed());
        bed.vswitch(0).from_vm(
            kPeerVnic,
            net::make_tcp_packet(f.tx.reversed(), steps[step], 100, kVpc));
      }
    }
    bed.run_for(milliseconds(20));
  }
  bed.run_for(milliseconds(200));

  // The observation nodes count every copy or routed packet they receive
  // under drop.no_vnic; those packets are compared one by one instead.
  for (std::size_t i = 0; i < bed.size(); ++i) {
    if (i == kRouteNode || i == kCollectorNode) continue;
    for (std::string_view name : vswitch::kCounterNames) {
      if (name.starts_with("drop.")) {
        out.drops[std::string(name)] += bed.vswitch(i).counters().get(name);
      }
    }
  }
  for (auto* v : {&out.at_peer, &out.at_subject, &out.routed, &out.tx_copies,
                  &out.rx_copies, &out.rx_sent}) {
    std::sort(v->begin(), v->end());
  }
  return out;
}

class FinalizeDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FinalizeDiffTest, LocalAndOffloadedFinalizationAgree) {
  const RuleSet rules = draw_rules(GetParam());
  const std::vector<Flow> flows = draw_flows(GetParam());
  const Outcome local = run(rules, flows, false);
  const Outcome off = run(rules, flows, true);

  EXPECT_EQ(local.at_peer, off.at_peer);
  EXPECT_EQ(local.at_subject, off.at_subject);
  EXPECT_EQ(local.routed, off.routed);
  EXPECT_EQ(local.tx_copies, off.tx_copies);
  EXPECT_EQ(local.drops, off.drops);
  // RX copies differ: a local vNIC mirrors after the stateful-ACL verdict,
  // an offloaded vNIC's FE before the BE's verdict. So the local copies are
  // the RX packets the subject's VM received, the offloaded ones every RX
  // packet the peer sent.
  if (rules.mirror) {
    EXPECT_EQ(local.rx_copies, local.at_subject);
    EXPECT_EQ(off.rx_copies, off.rx_sent);
  } else {
    EXPECT_TRUE(local.rx_copies.empty());
    EXPECT_TRUE(off.rx_copies.empty());
  }

  // What the drawn rules imply for what reached the peer.
  if (rules.qos_kbps == 1) EXPECT_TRUE(local.routed.empty());
  if (rules.qos_kbps == 1 || rules.route) EXPECT_TRUE(local.at_peer.empty());
  if (rules.nat) {
    EXPECT_TRUE(std::none_of(
        local.at_peer.begin(), local.at_peer.end(),
        [](const net::FiveTuple& ft) { return ft.src_ip == kSubjectIp; }));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FinalizeDiffTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace nezha
