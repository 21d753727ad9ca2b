// QoS rate-limiting tests: the token-bucket pre-action enforced at the
// single node that owns the flow — locally before offload, at the flow's
// one FE after offload (Nezha's answer to the distributed rate-limiting
// coordination Sirius needs, §2.3.3).
#include <gtest/gtest.h>

#include "src/core/testbed.h"
#include "src/tables/prefix.h"

namespace nezha {
namespace {

using common::milliseconds;
using common::seconds;
using tables::OverlayAddr;
using tables::VnicId;
using vswitch::VnicConfig;

constexpr std::uint32_t kVpc = 33;

TEST(QosBucketTest, TokenBucketMath) {
  flow::QosBucket bucket;
  // 8 kbps = 1000 bytes/s; burst = one second = 8000 bits.
  EXPECT_TRUE(bucket.admit(8, 4000, seconds(1)));
  EXPECT_TRUE(bucket.admit(8, 4000, seconds(1)));
  EXPECT_FALSE(bucket.admit(8, 1, seconds(1)));  // bucket drained
  // Half a second refills 4000 bits.
  EXPECT_TRUE(bucket.admit(8, 4000, seconds(1) + milliseconds(500)));
  EXPECT_FALSE(bucket.admit(8, 4000, seconds(1) + milliseconds(500)));
  // Unlimited always passes.
  EXPECT_TRUE(bucket.admit(0, 1 << 30, seconds(2)));
}

TEST(QosBucketTest, FullBurstsAtTimeZeroAdmitOnlyOne) {
  // A bucket first charged at t = 0 must drain like one charged later:
  // back-to-back full 8-kbps bursts (8000 bits each) at one instant admit
  // exactly one.
  flow::QosBucket bucket;
  int admitted = 0;
  for (int i = 0; i < 5; ++i) admitted += bucket.admit(8, 8000, 0) ? 1 : 0;
  EXPECT_EQ(admitted, 1);
}

class QosPathTest : public ::testing::Test {
 protected:
  QosPathTest() : bed_(make_config()) {
    VnicConfig sender;
    sender.id = 1;
    sender.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 1)};
    bed_.add_vnic(0, sender);
    VnicConfig receiver;
    receiver.id = 2;
    receiver.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 2)};
    bed_.add_vnic(1, receiver);
    bed_.vswitch(1).set_vm_delivery(
        [this](VnicId, const net::Packet&) { ++delivered_; });

    // Rate-limit the sender's traffic to ~80 kbps (≈16 600-byte packets/s
    // after the 1-second burst).
    auto* rules = bed_.vswitch(0).vnic(1)->rules();
    rules->qos().add_rate(tables::Prefix::host(receiver.addr.ip), 80);
    rules->commit_update();
  }

  static core::TestbedConfig make_config() {
    core::TestbedConfig cfg;
    cfg.num_vswitches = 12;
    cfg.controller.auto_offload = false;
    cfg.controller.auto_scale = false;
    return cfg;
  }

  /// Sends `count` packets of one flow over `duration`.
  void stream(int count, common::Duration duration) {
    const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                            net::Ipv4Addr(10, 0, 0, 2), 5000, 80,
                            net::IpProto::kUdp};
    const common::Duration gap = duration / count;
    for (int i = 0; i < count; ++i) {
      bed_.loop().schedule_after(gap * i, [this, ft]() {
        bed_.vswitch(0).from_vm(1, net::make_udp_packet(ft, 600, kVpc));
      });
    }
    bed_.run_for(duration + milliseconds(100));
  }

  /// `attributed` must equal the cycles vs's CPU served: its busy integral
  /// now, in cycles, within the rounding of each accepted op's service time
  /// down to whole nanoseconds.
  void expect_cycles_attributed(const vswitch::VSwitch& vs,
                                double attributed) {
    const vswitch::CpuModel& cpu = vs.cpu();
    const double per_ns =
        cpu.cycles_per_second() / static_cast<double>(common::kSecond);
    const double served =
        static_cast<double>(cpu.busy_integral(bed_.loop().now())) * per_ns;
    EXPECT_NEAR(attributed, served,
                static_cast<double>(cpu.accepted()) * per_ns);
  }

  core::Testbed bed_;
  std::uint64_t delivered_ = 0;
};

TEST_F(QosPathTest, LocalPathEnforcesRate) {
  // Offer ~200 packets over 2s (~520 kbps) against an 80 kbps limit:
  // burst (1s worth ≈ 15 pkts) + 2s refill (~31 pkts) ≈ 46 pass.
  stream(200, seconds(2));
  EXPECT_GT(bed_.vswitch(0).counters().get("drop.qos"), 100u);
  EXPECT_GT(delivered_, 20u);
  EXPECT_LT(delivered_, 80u);
}

// monitor_tick picks scale-out or scale-in from the split of CPU cycles
// between local and FE work (Fig 8), so the split must count every cycle a
// drop costs, QoS drops included.
TEST_F(QosPathTest, QosDropsAreAttributedToLocalCycles) {
  stream(200, seconds(2));
  ASSERT_GT(bed_.vswitch(0).counters().get("drop.qos"), 100u);
  expect_cycles_attributed(bed_.vswitch(0), bed_.vswitch(0).local_cycles());
}

TEST_F(QosPathTest, OffloadedPathEnforcesAtFrontend) {
  // After offload, TX packets are finalized at the flow's single FE — the
  // rate limit moves there with the cached pre-actions.
  ASSERT_TRUE(bed_.controller().trigger_offload(1).ok());
  bed_.run_for(seconds(4));
  ASSERT_TRUE(bed_.controller().is_offloaded(1));

  stream(200, seconds(2));
  std::uint64_t fe_qos_drops = 0;
  for (sim::NodeId n : bed_.controller().fe_nodes_of(1)) {
    const vswitch::VSwitch& fe = bed_.vswitch(n);
    fe_qos_drops += fe.counters().get("drop.qos");
    // An FE may share its vSwitch with the receiver, whose RX is local work.
    expect_cycles_attributed(fe, fe.fe_cycles() + fe.local_cycles());
  }
  EXPECT_GT(fe_qos_drops, 100u);
  EXPECT_GT(delivered_, 20u);
  EXPECT_LT(delivered_, 80u);
  // The BE applied no rate limiting of its own: one enforcement point.
  EXPECT_EQ(bed_.vswitch(0).counters().get("drop.qos"), 0u);
}

TEST_F(QosPathTest, UnlimitedFlowsUnaffected) {
  // A different destination without a QoS rule is never throttled.
  VnicConfig other;
  other.id = 3;
  other.addr = OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 3)};
  bed_.add_vnic(2, other);
  std::uint64_t other_rx = 0;
  bed_.vswitch(2).set_vm_delivery(
      [&](VnicId, const net::Packet&) { ++other_rx; });
  const net::FiveTuple ft{net::Ipv4Addr(10, 0, 0, 1),
                          net::Ipv4Addr(10, 0, 0, 3), 5000, 80,
                          net::IpProto::kUdp};
  for (int i = 0; i < 100; ++i) {
    bed_.vswitch(0).from_vm(1, net::make_udp_packet(ft, 600, kVpc));
  }
  bed_.run_for(milliseconds(100));
  EXPECT_EQ(other_rx, 100u);
}

}  // namespace
}  // namespace nezha
