// Integration tests of the vSwitch dataplane in traditional (local) mode:
// end-to-end delivery across two vSwitches, fast/slow path behaviour,
// stateful ACL semantics, resource-exhaustion bottlenecks, and the CPU
// queue/utilization model.
#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/nf/stateful.h"
#include "src/tables/acl.h"
#include "src/vswitch/resources.h"
#include "src/vswitch/vswitch.h"

namespace nezha {
namespace {

using common::microseconds;
using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;

constexpr std::uint32_t kVpc = 77;

VnicConfig make_vnic(VnicId id, net::Ipv4Addr overlay_ip,
                     std::size_t rule_bytes = 1 << 20) {
  VnicConfig cfg;
  cfg.id = id;
  cfg.addr = OverlayAddr{kVpc, overlay_ip};
  cfg.profile.synthetic_rule_bytes = rule_bytes;
  return cfg;
}

struct Delivery {
  VnicId vnic;
  net::Packet pkt;
};

class LocalPathTest : public ::testing::Test {
 protected:
  LocalPathTest() : bed_(make_config()) {
    client_ip_ = net::Ipv4Addr(10, 0, 0, 1);
    server_ip_ = net::Ipv4Addr(10, 0, 0, 2);
    bed_.add_vnic(0, make_vnic(1, client_ip_));
    bed_.add_vnic(1, make_vnic(2, server_ip_));
    bed_.vswitch(0).set_vm_delivery(
        [this](VnicId v, const net::Packet& p) {
          client_rx_.push_back({v, p});
        });
    bed_.vswitch(1).set_vm_delivery(
        [this](VnicId v, const net::Packet& p) {
          server_rx_.push_back({v, p});
        });
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 4;
    return cfg;
  }

  net::FiveTuple client_to_server(std::uint16_t sport = 40000,
                                  std::uint16_t dport = 80) const {
    return net::FiveTuple{client_ip_, server_ip_, sport, dport,
                          net::IpProto::kTcp};
  }

  void send_from_client(const net::FiveTuple& ft, net::TcpFlags flags) {
    bed_.vswitch(0).from_vm(1, net::make_tcp_packet(ft, flags, 100, kVpc));
  }
  void send_from_server(const net::FiveTuple& ft, net::TcpFlags flags) {
    bed_.vswitch(1).from_vm(2, net::make_tcp_packet(ft, flags, 100, kVpc));
  }

  core::Testbed bed_;
  net::Ipv4Addr client_ip_, server_ip_;
  std::vector<Delivery> client_rx_, server_rx_;
};

TEST_F(LocalPathTest, EndToEndDelivery) {
  send_from_client(client_to_server(), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  ASSERT_EQ(server_rx_.size(), 1u);
  EXPECT_EQ(server_rx_[0].vnic, 2u);
  EXPECT_EQ(server_rx_[0].pkt.inner.ft.dst_ip, server_ip_);
  // The client side ran a slow-path lookup for the first packet; so did the
  // server side on RX.
  EXPECT_EQ(bed_.vswitch(0).slow_path_lookups(), 1u);
  EXPECT_EQ(bed_.vswitch(1).slow_path_lookups(), 1u);
}

TEST_F(LocalPathTest, SecondPacketUsesFastPath) {
  send_from_client(client_to_server(), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  send_from_client(client_to_server(), net::TcpFlags{.ack = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(bed_.vswitch(0).slow_path_lookups(), 1u);
  EXPECT_GE(bed_.vswitch(0).fast_path_hits(), 1u);
  EXPECT_EQ(server_rx_.size(), 2u);
}

TEST_F(LocalPathTest, BidirectionalFlowSharesSession) {
  auto ft = client_to_server();
  send_from_client(ft, net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  send_from_server(ft.reversed(), net::TcpFlags{.syn = true, .ack = true});
  bed_.run_for(milliseconds(10));
  ASSERT_EQ(client_rx_.size(), 1u);
  // Server holds ONE session entry for the bidirectional flow.
  EXPECT_EQ(bed_.vswitch(1).sessions().size(), 1u);
  const auto key = flow::SessionKey::from_packet(kVpc, ft);
  const auto* entry = bed_.vswitch(1).sessions().find(key);
  ASSERT_NE(entry, nullptr);
  // From the server's viewpoint the first packet was RX.
  EXPECT_EQ(entry->state.first_dir, flow::FirstDirection::kRx);
}

TEST_F(LocalPathTest, StatefulAclDropsUnsolicitedRx) {
  // Deny all inbound on the server vNIC (classic stateful-ACL setup).
  auto* rules = bed_.vswitch(1).vnic(2)->rules();
  rules->acl().add_rule(tables::AclRule{
      .priority = 1,
      .direction = flow::Direction::kRx,
      .verdict = flow::Verdict::kDrop});
  rules->commit_update();

  send_from_client(client_to_server(), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(server_rx_.size(), 0u);
  EXPECT_EQ(bed_.vswitch(1).counters().get("drop.acl"), 1u);
}

TEST_F(LocalPathTest, StatefulAclAllowsResponsesToLocalInitiation) {
  auto* rules = bed_.vswitch(1).vnic(2)->rules();
  rules->acl().add_rule(tables::AclRule{
      .priority = 1,
      .direction = flow::Direction::kRx,
      .verdict = flow::Verdict::kDrop});
  rules->commit_update();

  // Server initiates (TX) toward the client; the client's response must be
  // accepted despite the deny-all-inbound ACL (§5.1).
  auto server_ft = client_to_server().reversed();  // server → client
  send_from_server(server_ft, net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  ASSERT_EQ(client_rx_.size(), 1u);
  send_from_client(server_ft.reversed(),
                   net::TcpFlags{.syn = true, .ack = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(server_rx_.size(), 1u);
  EXPECT_EQ(bed_.vswitch(1).counters().get("drop.acl"), 0u);
}

TEST_F(LocalPathTest, RuleUpdateInvalidatesCachedFlows) {
  send_from_client(client_to_server(), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(bed_.vswitch(1).slow_path_lookups(), 1u);

  // Tenant updates the server ACL: the cached flow must be regenerated.
  auto* rules = bed_.vswitch(1).vnic(2)->rules();
  rules->acl().add_rule(tables::AclRule{
      .priority = 1,
      .direction = flow::Direction::kRx,
      .verdict = flow::Verdict::kDrop});
  rules->commit_update();
  bed_.vswitch(1).invalidate_cached_flows(2);

  send_from_client(client_to_server(), net::TcpFlags{.ack = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(bed_.vswitch(1).slow_path_lookups(), 2u);
  // The new verdict applies... but the session was client-initiated (RX
  // first at the server), so the deny-inbound rule now drops it.
  EXPECT_EQ(bed_.vswitch(1).counters().get("drop.acl"), 1u);
}

TEST_F(LocalPathTest, VnicMemoryBottleneck) {
  // #vNICs is limited by slow-path rule memory (§2.2.2).
  core::TestbedConfig cfg;
  cfg.num_vswitches = 1;
  cfg.vswitch.rule_memory_bytes = 10 * (1 << 20);
  core::Testbed small(cfg);
  std::size_t added = 0;
  for (VnicId id = 1; id <= 20; ++id) {
    auto st = small.vswitch(0).add_vnic(
        make_vnic(id, net::Ipv4Addr(10, 1, 0, static_cast<uint8_t>(id)),
                  3 * (1 << 20)));
    if (!st.ok()) break;
    ++added;
  }
  EXPECT_EQ(added, 3u);  // 3 * (3MB + small tables) fits in 10MB, 4th fails
  EXPECT_GT(small.vswitch(0).rule_memory().failures(), 0u);
}

TEST_F(LocalPathTest, SessionMemoryBottleneck) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 2;
  cfg.vswitch.session_memory_bytes = 10 * 128;  // ten full entries
  core::Testbed small(cfg);
  small.add_vnic(0, make_vnic(1, net::Ipv4Addr(10, 0, 0, 1)));
  for (int i = 0; i < 20; ++i) {
    net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 9, 9),
                      static_cast<std::uint16_t>(1000 + i), 80,
                      net::IpProto::kTcp};
    small.vswitch(0).from_vm(1, net::make_tcp_packet(
                                    ft, net::TcpFlags{.syn = true}, 0, kVpc));
  }
  small.run_for(milliseconds(10));
  EXPECT_GT(small.vswitch(0).counters().get("drop.session_full"), 0u);
  EXPECT_LE(small.vswitch(0).sessions().memory_bytes(), 10u * 128u);
}

TEST_F(LocalPathTest, CpuOverloadDropsPackets) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 2;
  cfg.vswitch.cpu.cores = 1;
  cfg.vswitch.cpu.hz_per_core = 1e6;  // absurdly slow: 1M cycles/s
  cfg.vswitch.cpu.max_queue_delay = milliseconds(1);
  core::Testbed slow(cfg);
  slow.add_vnic(0, make_vnic(1, net::Ipv4Addr(10, 0, 0, 1)));
  slow.add_vnic(1, make_vnic(2, net::Ipv4Addr(10, 0, 0, 2)));
  for (int i = 0; i < 100; ++i) {
    net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                      static_cast<std::uint16_t>(1000 + i), 80,
                      net::IpProto::kTcp};
    slow.vswitch(0).from_vm(
        1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0, kVpc));
  }
  slow.run_for(seconds(1));
  EXPECT_GT(slow.vswitch(0).counters().get("drop.cpu_overload"), 0u);
  EXPECT_GT(slow.vswitch(0).cpu().rejected(), 0u);
}

TEST_F(LocalPathTest, AgingReclaimsSessionMemory) {
  bed_.vswitch(0).start_aging();
  send_from_client(client_to_server(), net::TcpFlags{.syn = true});
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(bed_.vswitch(0).sessions().size(), 1u);
  const std::size_t used = bed_.vswitch(0).session_memory().used();
  EXPECT_GT(used, 0u);
  // Embryonic sessions age out after ~1s (§7.3 short SYN aging).
  bed_.run_for(seconds(3));
  EXPECT_EQ(bed_.vswitch(0).sessions().size(), 0u);
  EXPECT_EQ(bed_.vswitch(0).session_memory().used(), 0u);
}

TEST_F(LocalPathTest, UnknownDestinationCountsNoRoute) {
  net::FiveTuple ft{client_ip_, net::Ipv4Addr(10, 9, 9, 9), 1000, 80,
                    net::IpProto::kTcp};
  bed_.vswitch(0).from_vm(
      1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0, kVpc));
  bed_.run_for(milliseconds(10));
  EXPECT_EQ(bed_.vswitch(0).counters().get("drop.no_route"), 1u);
}

// ---------------------------------------------------------------------------
// VM sinks: each VM adapter on a vSwitch has its own sink.

/// Sender vNIC 1 on vSwitch 0; vNICs 2 and 3 on vSwitch 1, neither with a
/// sink yet.
class VmSinkTest : public ::testing::Test {
 protected:
  VmSinkTest() : bed_(make_config()) {
    bed_.add_vnic(0, make_vnic(1, net::Ipv4Addr(10, 0, 0, 1)));
    bed_.add_vnic(1, make_vnic(2, net::Ipv4Addr(10, 0, 0, 2)));
    bed_.add_vnic(1, make_vnic(3, net::Ipv4Addr(10, 0, 0, 3)));
  }

  /// One SYN from vNIC 1 to 10.0.0.<octet>, run to delivery.
  void send_to(std::uint8_t octet, std::uint16_t sport) {
    const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 0, 0, octet), sport, 80,
                            net::IpProto::kTcp};
    bed_.vswitch(0).from_vm(
        1, net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 100, kVpc));
    bed_.run_for(milliseconds(10));
  }
  std::uint64_t no_sink_drops() {
    return bed_.vswitch(1).counters().get("drop.no_vm_sink");
  }
  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 4;
    return cfg;
  }

  core::Testbed bed_;
};

TEST_F(VmSinkTest, DeliveryWithoutSinkCountsADrop) {
  send_to(2, 40000);
  EXPECT_EQ(bed_.vswitch(1).vm_deliveries(), 1u);
  EXPECT_EQ(no_sink_drops(), 1u);
}

TEST_F(VmSinkTest, SinkNeverSeesAnotherAdaptersPackets) {
  std::vector<VnicId> at2, at3;
  bed_.vswitch(1).set_vm_delivery(
      2, [&](VnicId v, const net::Packet&) { at2.push_back(v); });
  bed_.vswitch(1).set_vm_delivery(
      3, [&](VnicId v, const net::Packet&) { at3.push_back(v); });
  send_to(3, 40000);
  send_to(2, 40001);
  send_to(3, 40002);
  EXPECT_EQ(at2, (std::vector<VnicId>{2}));
  EXPECT_EQ(at3, (std::vector<VnicId>{3, 3}));
  EXPECT_EQ(no_sink_drops(), 0u);
}

TEST_F(VmSinkTest, ChildPacketsReachTheParentSinkWithTheChildId) {
  VnicConfig child = make_vnic(4, net::Ipv4Addr(10, 0, 0, 4));
  child.parent = 2;  // §7.4: shares vNIC 2's adapter
  child.vlan_tag = 4;
  bed_.add_vnic(1, child);
  std::vector<VnicId> at2;
  bed_.vswitch(1).set_vm_delivery(
      2, [&](VnicId v, const net::Packet&) { at2.push_back(v); });
  send_to(4, 40000);
  send_to(2, 40001);
  EXPECT_EQ(at2, (std::vector<VnicId>{4, 2}));
  EXPECT_EQ(bed_.vswitch(1).adapter_deliveries(2), 2u);
  EXPECT_EQ(bed_.vswitch(1).adapter_deliveries(4), 0u);
  EXPECT_EQ(no_sink_drops(), 0u);
}

TEST_F(VmSinkTest, RemoveVnicClearsItsSink) {
  std::uint64_t seen = 0;
  bed_.vswitch(1).set_vm_delivery(
      2, [&](VnicId, const net::Packet&) { ++seen; });
  send_to(2, 40000);
  ASSERT_EQ(seen, 1u);
  // The VM leaves; a new one takes the same vNIC id on the same vSwitch.
  bed_.vswitch(1).remove_vnic(2);
  ASSERT_TRUE(
      bed_.vswitch(1).add_vnic(make_vnic(2, net::Ipv4Addr(10, 0, 0, 2))).ok());
  send_to(2, 40001);
  EXPECT_EQ(seen, 1u) << "the departed VM's sink still took packets";
  EXPECT_EQ(no_sink_drops(), 1u);
}

TEST_F(VmSinkTest, OneArgumentFormCoversTheAdaptersHostedNow) {
  std::vector<VnicId> seen;
  bed_.vswitch(1).set_vm_delivery(
      [&](VnicId v, const net::Packet&) { seen.push_back(v); });
  bed_.add_vnic(1, make_vnic(5, net::Ipv4Addr(10, 0, 0, 5)));
  send_to(2, 40000);
  send_to(3, 40001);
  send_to(5, 40002);
  EXPECT_EQ(seen, (std::vector<VnicId>{2, 3}));
  EXPECT_EQ(no_sink_drops(), 1u);
}

TEST(CpuModelTest, UtilizationSamplerExact) {
  vswitch::CpuModel cpu(vswitch::CpuConfig{.cores = 1, .hz_per_core = 1e9});
  vswitch::UtilizationSampler sampler;
  // 500M cycles at t=0 → busy exactly [0, 500ms).
  auto out = cpu.consume(5e8, 0);
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(out.done, milliseconds(500));
  EXPECT_NEAR(sampler.sample(cpu, common::seconds(1)), 0.5, 1e-9);
  // Second window fully idle.
  EXPECT_NEAR(sampler.sample(cpu, common::seconds(2)), 0.0, 1e-9);
}

TEST(CpuModelTest, QueueDelayGrowsUnderBacklog) {
  vswitch::CpuModel cpu(vswitch::CpuConfig{
      .cores = 1, .hz_per_core = 1e9, .max_queue_delay = milliseconds(10)});
  auto first = cpu.consume(1e6, 0);  // 1ms of work
  EXPECT_EQ(first.queue_delay, 0);
  auto second = cpu.consume(1e6, 0);
  EXPECT_EQ(second.queue_delay, milliseconds(1));
  // Saturate: the queue delay cap eventually rejects.
  bool rejected = false;
  for (int i = 0; i < 100; ++i) {
    if (!cpu.consume(1e6, 0).accepted) {
      rejected = true;
      break;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST(MemoryPoolTest, ReserveRelease) {
  vswitch::MemoryPool pool(100);
  EXPECT_TRUE(pool.reserve(60));
  EXPECT_FALSE(pool.reserve(50));
  EXPECT_EQ(pool.failures(), 1u);
  EXPECT_DOUBLE_EQ(pool.utilization(), 0.6);
  pool.release(60);
  EXPECT_EQ(pool.used(), 0u);
  pool.release(10);  // over-release clamps
  EXPECT_EQ(pool.used(), 0u);
}

}  // namespace
}  // namespace nezha
