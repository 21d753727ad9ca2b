// Integration tests of the Nezha core: the full offload workflow (dual
// running → final stage), the BE/FE datapath with state-carrying packets,
// the §5.1/§5.2 case studies end to end, notify packets, FE load balancing,
// scale-out/in, failover with the health monitor, fallback, and BE
// migration (§7.2).
#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/vswitch/vswitch.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;
using vswitch::VnicMode;

constexpr std::uint32_t kVpc = 9;
constexpr VnicId kClientVnic = 1;
constexpr VnicId kServerVnic = 2;

class NezhaCoreTest : public ::testing::Test {
 protected:
  NezhaCoreTest() : bed_(make_config()) {
    client_ip_ = net::Ipv4Addr(10, 0, 0, 1);
    server_ip_ = net::Ipv4Addr(10, 0, 0, 2);
    VnicConfig client;
    client.id = kClientVnic;
    client.addr = OverlayAddr{kVpc, client_ip_};
    client.profile.synthetic_rule_bytes = 1 << 20;
    VnicConfig server;
    server.id = kServerVnic;
    server.addr = OverlayAddr{kVpc, server_ip_};
    server.profile.synthetic_rule_bytes = 4 << 20;
    bed_.add_vnic(0, client);
    bed_.add_vnic(1, server);
    bed_.vswitch(0).set_vm_delivery(
        [this](VnicId, const net::Packet& p) { client_rx_.push_back(p); });
    bed_.vswitch(1).set_vm_delivery(
        [this](VnicId, const net::Packet& p) { server_rx_.push_back(p); });
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 12;
    cfg.controller.auto_offload = false;  // tests trigger explicitly
    cfg.controller.auto_scale = false;
    return cfg;
  }

  net::FiveTuple flow(std::uint16_t sport, std::uint16_t dport = 80) const {
    return net::FiveTuple{client_ip_, server_ip_, sport, dport,
                          net::IpProto::kTcp};
  }

  void client_sends(const net::FiveTuple& ft, net::TcpFlags flags) {
    bed_.vswitch(0).from_vm(kClientVnic,
                            net::make_tcp_packet(ft, flags, 100, kVpc));
  }
  void server_sends(const net::FiveTuple& ft, net::TcpFlags flags) {
    bed_.vswitch(1).from_vm(kServerVnic,
                            net::make_tcp_packet(ft, flags, 100, kVpc));
  }

  /// Runs the offload workflow to completion (config latencies ≈ 1s).
  void offload_server() {
    auto st = bed_.controller().trigger_offload(kServerVnic);
    ASSERT_TRUE(st.ok()) << st.error().message;
    bed_.run_for(seconds(4));
    ASSERT_EQ(bed_.vswitch(1).vnic(kServerVnic)->mode(), VnicMode::kOffloaded);
  }

  /// An FE node of the server vNIC that is NOT the client's vSwitch (node
  /// 0 can legitimately be selected as an FE — the pool reuses vSwitches
  /// that host their own vNICs — but crashing it would kill the client).
  sim::NodeId victim_fe() {
    for (sim::NodeId n : bed_.controller().fe_nodes_of(kServerVnic)) {
      if (n != 0) return n;
    }
    return sim::kInvalidNode;
  }

  std::size_t total_fe_cache_entries() {
    std::size_t n = 0;
    for (sim::NodeId node : bed_.controller().fe_nodes_of(kServerVnic)) {
      auto* fe = bed_.vswitch(node).frontend(kServerVnic);
      if (fe != nullptr) n += fe->flow_cache.size();
    }
    return n;
  }

  core::Testbed bed_;
  net::Ipv4Addr client_ip_, server_ip_;
  std::vector<net::Packet> client_rx_, server_rx_;
};

TEST_F(NezhaCoreTest, OffloadProvisionsFourFrontends) {
  offload_server();
  const auto fes = bed_.controller().fe_nodes_of(kServerVnic);
  EXPECT_EQ(fes.size(), 4u);
  for (sim::NodeId node : fes) {
    EXPECT_NE(bed_.vswitch(node).frontend(kServerVnic), nullptr);
    EXPECT_NE(node, 1u);  // never the BE itself
  }
  // Final stage: local rule tables are gone; only the 2KB BE metadata stays.
  EXPECT_FALSE(bed_.vswitch(1).vnic(kServerVnic)->has_local_tables());
  EXPECT_TRUE(bed_.controller().is_offloaded(kServerVnic));
  EXPECT_EQ(bed_.controller().offload_events(), 1u);
}

TEST_F(NezhaCoreTest, OffloadReleasesRuleMemory) {
  const std::size_t before = bed_.vswitch(1).rule_memory().used();
  offload_server();
  const std::size_t after = bed_.vswitch(1).rule_memory().used();
  // The 4MB synthetic rules are released; the 2KB BE metadata remains.
  EXPECT_LT(after, before);
  EXPECT_GE(before - after, (4u << 20) - vswitch::kBackendMetadataBytes);
}

TEST_F(NezhaCoreTest, RxPathThroughFrontendDelivers) {
  offload_server();
  client_sends(flow(40000), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));  // allow learning + forwarding
  ASSERT_EQ(server_rx_.size(), 1u);
  // The packet was processed by exactly one FE (pre-actions lookup there)
  // and finalized at the BE.
  EXPECT_EQ(total_fe_cache_entries(), 1u);
  EXPECT_EQ(bed_.vswitch(1).counters().get("drop.stale_route"), 0u);
  // BE session state recorded the first direction as RX.
  const auto key = flow::SessionKey::from_packet(kVpc, flow(40000));
  const auto* entry = bed_.vswitch(1).sessions().find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state.first_dir, flow::FirstDirection::kRx);
}

TEST_F(NezhaCoreTest, TxPathCarriesStateThroughFrontend) {
  offload_server();
  // Server-initiated flow: BE encapsulates its state into the packet, the
  // FE finalizes and forwards to the client.
  auto ft = flow(41000).reversed();  // server → client
  server_sends(ft, net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));
  ASSERT_EQ(client_rx_.size(), 1u);
  EXPECT_EQ(client_rx_[0].inner.ft.src_ip, server_ip_);
  // The BE ran no slow-path lookup (it has no tables); the FE did.
  EXPECT_EQ(bed_.vswitch(1).slow_path_lookups(), 0u);
  EXPECT_EQ(total_fe_cache_entries(), 1u);
}

TEST_F(NezhaCoreTest, TrafficDuringOffloadTransitionIsNotLost) {
  // Start continuous traffic, trigger the offload mid-stream, and verify
  // the dual-running stage masks the transition (no stale-route drops, all
  // packets delivered).
  int sent = 0;
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&]() {
    if (bed_.loop().now() > seconds(5)) return;
    client_sends(flow(static_cast<std::uint16_t>(42000 + (sent % 100))),
                 net::TcpFlags{.ack = true});
    ++sent;
    bed_.loop().schedule_after(milliseconds(10), *pump);
  };
  bed_.loop().schedule_after(milliseconds(0), *pump);
  bed_.run_for(milliseconds(500));
  auto st = bed_.controller().trigger_offload(kServerVnic);
  ASSERT_TRUE(st.ok());
  bed_.run_for(seconds(6));
  EXPECT_EQ(bed_.vswitch(1).counters().get("drop.stale_route"), 0u);
  EXPECT_EQ(static_cast<int>(server_rx_.size()), sent);
}

TEST_F(NezhaCoreTest, StatefulAclAcrossOffload) {
  // §5.1 end to end, with the session established BEFORE the offload and
  // exercised after: state continuity at the BE is what keeps the ACL
  // decision stable.
  auto* rules = bed_.vswitch(1).vnic(kServerVnic)->rules();
  rules->acl().add_rule(tables::AclRule{
      .priority = 1,
      .direction = flow::Direction::kRx,
      .verdict = flow::Verdict::kDrop});
  rules->commit_update();

  // Server initiates → first_dir TX recorded locally.
  auto server_ft = flow(43000).reversed();
  server_sends(server_ft, net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(50));
  ASSERT_EQ(client_rx_.size(), 1u);

  offload_server();

  // Client response arrives via an FE; its RX pre-action says drop, but the
  // BE state says the session is TX-initiated → accept.
  client_sends(server_ft.reversed(), net::TcpFlags{.syn = true, .ack = true});
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(server_rx_.size(), 1u);

  // An unsolicited flow from the client is still dropped (at the BE, using
  // FE-carried pre-actions).
  client_sends(flow(43999), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(server_rx_.size(), 1u);
  EXPECT_GE(bed_.vswitch(1).counters().get("drop.acl"), 1u);
}

TEST_F(NezhaCoreTest, StatefulDecapAcrossOffload) {
  // §5.2: the server vNIC is a real server behind an LB; the vSwitch must
  // record the overlay source (LB address) from the first RX packet and
  // send TX responses back to it.
  core::TestbedConfig cfg = make_config();
  core::Testbed bed(cfg);
  net::Ipv4Addr rs_ip(10, 1, 0, 2);
  net::Ipv4Addr client_overlay(203, 0, 113, 7);  // stays unchanged through LB
  VnicConfig rs;
  rs.id = 5;
  rs.addr = OverlayAddr{kVpc, rs_ip};
  bed.add_vnic(1, rs, /*stateful_decap=*/true);
  std::vector<net::Packet> rs_rx;
  bed.vswitch(1).set_vm_delivery(
      [&](VnicId, const net::Packet& p) { rs_rx.push_back(p); });

  auto st = bed.controller().trigger_offload(5);
  ASSERT_TRUE(st.ok()) << st.error().message;
  bed.run_for(seconds(4));

  // The "LB" lives on vSwitch 0's server: inject an encapsulated packet
  // whose overlay source is the LB's underlay address.
  net::FiveTuple ft{client_overlay, rs_ip, 55555, 80, net::IpProto::kTcp};
  net::Packet pkt = net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0,
                                         kVpc);
  const net::Ipv4Addr lb_underlay = bed.vswitch(0).underlay_ip();
  // Send to one of the FEs, as the LB's vSwitch would after learning.
  const auto fes = bed.controller().fe_nodes_of(5);
  ASSERT_FALSE(fes.empty());
  pkt.encap(lb_underlay, bed.vswitch(0).mac(),
            bed.vswitch(fes[0]).underlay_ip(), bed.vswitch(fes[0]).mac());
  bed.network().send(bed.vswitch(0).id(), bed.vswitch(fes[0]).underlay_ip(),
                     std::move(pkt));
  bed.run_for(milliseconds(50));
  ASSERT_EQ(rs_rx.size(), 1u);

  // BE recorded the LB address in the session state.
  const auto key = flow::SessionKey::from_packet(kVpc, ft);
  const auto* entry = bed.vswitch(1).sessions().find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state.decap_src_ip, lb_underlay);

  // RS response: TX path via an FE must target the LB's underlay address,
  // not the client's (which has no route here).
  std::uint64_t delivered_to_lb = 0;
  bed.network().set_trace([&](common::TimePoint, const net::Packet& p,
                              sim::NodeId, sim::NodeId to) {
    if (to == bed.vswitch(0).id() && p.encapsulated() &&
        p.overlay->dst_ip == lb_underlay) {
      ++delivered_to_lb;
    }
  });
  bed.vswitch(1).from_vm(
      5, net::make_tcp_packet(ft.reversed(),
                              net::TcpFlags{.syn = true, .ack = true}, 0,
                              kVpc));
  bed.run_for(milliseconds(50));
  EXPECT_EQ(delivered_to_lb, 1u);
}

TEST_F(NezhaCoreTest, NotifyPacketUpdatesBackendState) {
  // A flow-statistics policy lives in the rule tables (rule-table-involved
  // state, §3.2.2). After offload the BE does not see the tables; the FE
  // must notify it on the first TX packet's cache miss.
  auto* rules = bed_.vswitch(1).vnic(kServerVnic)->rules();
  rules->stats_policy().add_policy(
      tables::Prefix::any(), flow::StatsMode::kPacketsAndBytes);
  rules->commit_update();

  offload_server();

  auto ft = flow(44000).reversed();  // server → client
  server_sends(ft, net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));

  // The FE detected snapshot.stats_mode (none) != rule-table stats mode
  // (packets+bytes) and sent a notify packet.
  std::uint64_t notifies = 0;
  for (sim::NodeId node : bed_.controller().fe_nodes_of(kServerVnic)) {
    notifies += bed_.vswitch(node).notify_sent();
  }
  EXPECT_EQ(notifies, 1u);
  EXPECT_EQ(bed_.vswitch(1).counters().get("notify_received"), 1u);
  const auto key = flow::SessionKey::from_packet(kVpc, ft);
  const auto* entry = bed_.vswitch(1).sessions().find(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state.stats_mode, flow::StatsMode::kPacketsAndBytes);

  // Subsequent TX packets carry the updated state: no further notifies.
  server_sends(ft, net::TcpFlags{.ack = true});
  bed_.run_for(milliseconds(300));
  std::uint64_t notifies_after = 0;
  for (sim::NodeId node : bed_.controller().fe_nodes_of(kServerVnic)) {
    notifies_after += bed_.vswitch(node).notify_sent();
  }
  EXPECT_EQ(notifies_after, 1u);
}

TEST_F(NezhaCoreTest, FlowsSpreadAcrossFrontends) {
  offload_server();
  for (int i = 0; i < 200; ++i) {
    server_sends(flow(static_cast<std::uint16_t>(45000 + i)).reversed(),
                 net::TcpFlags{.syn = true});
  }
  bed_.run_for(milliseconds(500));
  // Every FE should have cached a meaningful share of the 200 flows.
  std::size_t with_load = 0;
  for (sim::NodeId node : bed_.controller().fe_nodes_of(kServerVnic)) {
    const auto* fe = bed_.vswitch(node).frontend(kServerVnic);
    ASSERT_NE(fe, nullptr);
    if (fe->flow_cache.size() >= 20) ++with_load;
  }
  EXPECT_EQ(with_load, 4u);
  EXPECT_EQ(total_fe_cache_entries(), 200u);
}

// An FE flow-cache entry is charged key + pre-actions once, at creation;
// caching its pre-actions adds nothing, and aging returns every byte. The
// FE-side twin of LocalPathTest.AgingReclaimsSessionMemory.
TEST_F(NezhaCoreTest, FrontendCacheAgingReclaimsSessionMemory) {
  offload_server();
  for (std::size_t n = 0; n < bed_.size(); ++n) bed_.vswitch(n).start_aging();
  for (int i = 0; i < 64; ++i) {
    client_sends(flow(static_cast<std::uint16_t>(46000 + i)),
                 net::TcpFlags{.syn = true});
  }
  bed_.run_for(milliseconds(100));
  constexpr std::size_t kEntryBytes =
      flow::kSessionKeyBytes + flow::kPreActionsBytes;
  std::vector<sim::NodeId> fe_hosts;  // FE hosts without local sessions
  std::size_t cached = 0;
  for (sim::NodeId node : bed_.controller().fe_nodes_of(kServerVnic)) {
    vswitch::VSwitch& host = bed_.vswitch(node);
    if (host.sessions().size() != 0) continue;
    const auto* fe = host.frontend(kServerVnic);
    ASSERT_NE(fe, nullptr);
    EXPECT_EQ(host.session_memory().used(), fe->flow_cache.size() * kEntryBytes)
        << "FE host " << node;
    cached += fe->flow_cache.size();
    fe_hosts.push_back(node);
  }
  ASSERT_GT(cached, 0u);
  bed_.run_for(seconds(20));  // past the 8 s flow-cache TTL
  for (sim::NodeId node : fe_hosts) {
    EXPECT_EQ(bed_.vswitch(node).frontend(kServerVnic)->flow_cache.size(), 0u);
    EXPECT_EQ(bed_.vswitch(node).session_memory().used(), 0u)
        << "FE host " << node;
  }
}

TEST_F(NezhaCoreTest, ScaleOutAddsFrontends) {
  offload_server();
  auto st = bed_.controller().scale_out(kServerVnic, 4);
  ASSERT_TRUE(st.ok()) << st.error().message;
  bed_.run_for(seconds(2));
  EXPECT_EQ(bed_.controller().fe_nodes_of(kServerVnic).size(), 8u);
  EXPECT_EQ(bed_.controller().scale_out_events(), 1u);
  // New flows keep flowing after the rehash.
  client_sends(flow(46000), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(server_rx_.size(), 1u);
}

TEST_F(NezhaCoreTest, ScaleInEvictsAndReplenishes) {
  offload_server();
  const sim::NodeId evicted = victim_fe();
  bed_.controller().scale_in_vswitch(evicted);
  bed_.run_for(seconds(2));
  const auto after = bed_.controller().fe_nodes_of(kServerVnic);
  // min_fes = 4 is maintained: the evicted FE was replaced elsewhere.
  EXPECT_EQ(after.size(), 4u);
  EXPECT_EQ(std::count(after.begin(), after.end(), evicted), 0);
  EXPECT_EQ(bed_.controller().scale_in_events(), 1u);
  EXPECT_EQ(bed_.controller().scale_out_events(), 1u);
}

TEST_F(NezhaCoreTest, FailoverReplacesCrashedFrontend) {
  offload_server();
  bed_.watch_fe_hosts();
  bed_.monitor().start();
  bed_.run_for(seconds(2));  // monitoring warm-up, all healthy

  const sim::NodeId crashed = victim_fe();
  bed_.network().crash(crashed);
  bed_.run_for(seconds(4));

  EXPECT_EQ(bed_.monitor().crashes_declared(), 1u);
  EXPECT_EQ(bed_.controller().failover_events(), 1u);
  const auto after = bed_.controller().fe_nodes_of(kServerVnic);
  EXPECT_EQ(after.size(), 4u);
  EXPECT_EQ(std::count(after.begin(), after.end(), crashed), 0);

  // Traffic works again end to end.
  for (int i = 0; i < 40; ++i) {
    client_sends(flow(static_cast<std::uint16_t>(47000 + i)),
                 net::TcpFlags{.syn = true});
  }
  bed_.run_for(milliseconds(500));
  EXPECT_EQ(server_rx_.size(), 40u);
}

TEST_F(NezhaCoreTest, WidespreadFailureGuardSuppresses) {
  offload_server();
  bed_.watch_fe_hosts();
  bed_.monitor().start();
  bed_.run_for(seconds(1));
  // Crash 3 of the 4 FE hosts: the §C.2 guard must stop the cascade.
  const auto fes = bed_.controller().fe_nodes_of(kServerVnic);
  bed_.network().crash(fes[0]);
  bed_.network().crash(fes[1]);
  bed_.network().crash(fes[2]);
  bed_.run_for(seconds(5));
  EXPECT_GT(bed_.monitor().declarations_suppressed(), 0u);
  // At most half the targets were auto-declared.
  EXPECT_LE(bed_.monitor().crashes_declared(), 2u);
}

TEST_F(NezhaCoreTest, FallbackRestoresLocalProcessing) {
  offload_server();
  auto st = bed_.controller().trigger_fallback(kServerVnic);
  ASSERT_TRUE(st.ok()) << st.error().message;
  bed_.run_for(seconds(3));
  EXPECT_EQ(bed_.vswitch(1).vnic(kServerVnic)->mode(), VnicMode::kLocal);
  EXPECT_FALSE(bed_.controller().is_offloaded(kServerVnic));
  // FEs were dismantled after the retention window.
  for (std::size_t i = 0; i < bed_.size(); ++i) {
    EXPECT_EQ(bed_.vswitch(i).frontend(kServerVnic), nullptr);
  }
  // Traffic flows locally again.
  client_sends(flow(48000), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(server_rx_.size(), 1u);
  EXPECT_GT(bed_.vswitch(1).slow_path_lookups(), 0u);
}

TEST_F(NezhaCoreTest, BackendMigrationIsInstant) {
  offload_server();
  vswitch::VSwitch& new_home = bed_.vswitch(7);
  std::vector<net::Packet> new_home_rx;
  new_home.set_vm_delivery(
      [&](VnicId, const net::Packet& p) { new_home_rx.push_back(p); });

  const common::TimePoint before = bed_.loop().now();
  auto st = bed_.controller().migrate_backend(kServerVnic, &new_home);
  ASSERT_TRUE(st.ok()) << st.error().message;
  // §7.2: takes effect in <1ms of simulated time (pure config update).
  EXPECT_LT(bed_.loop().now() - before, milliseconds(1));

  client_sends(flow(49000), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(300));
  EXPECT_EQ(new_home_rx.size(), 1u);
  EXPECT_EQ(server_rx_.size(), 0u);
}

TEST_F(NezhaCoreTest, OffloadRejectsWhenPoolTooSmall) {
  core::TestbedConfig cfg = make_config();
  cfg.num_vswitches = 3;  // home + 2 candidates < 4 required
  core::Testbed tiny(cfg);
  VnicConfig v;
  v.id = 3;
  v.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 3, 0, 1)};
  tiny.add_vnic(0, v);
  auto st = tiny.controller().trigger_offload(3);
  EXPECT_FALSE(st.ok());
}

TEST_F(NezhaCoreTest, DoubleOffloadRejected) {
  offload_server();
  EXPECT_FALSE(bed_.controller().trigger_offload(kServerVnic).ok());
}

TEST_F(NezhaCoreTest, CompletionTimeRecorded) {
  offload_server();
  ASSERT_EQ(bed_.controller().offload_completion().count(), 1u);
  const double ms = bed_.controller().offload_completion().mean();
  // Order of magnitude of Table 4: hundreds of ms to a few seconds.
  EXPECT_GT(ms, 200.0);
  EXPECT_LT(ms, 5000.0);
}

}  // namespace
}  // namespace nezha
