// Unit tests for the flow layer: pre-action serialization, TCP FSM,
// session state semantics (first-direction, stateful decap, statistics,
// Fig-15 used-bytes census), and the session table in its three shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "src/flow/pre_actions.h"
#include "src/flow/session.h"
#include "src/flow/session_table.h"
#include "src/flow/tcp_fsm.h"

namespace nezha::flow {
namespace {

using common::milliseconds;
using common::seconds;
using net::FiveTuple;
using net::Ipv4Addr;
using net::IpProto;
using net::TcpFlags;

FiveTuple tx_tuple() {
  return FiveTuple{Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2), 40000, 80,
                   IpProto::kTcp};
}

TEST(PreActionsTest, SerializeParseRoundTrip) {
  PreActions p;
  p.rule_version = 17;
  p.tx.acl_verdict = Verdict::kAccept;
  p.tx.nat_enabled = true;
  p.tx.nat_ip = Ipv4Addr(100, 64, 0, 5);
  p.tx.nat_port = 4096;
  p.tx.rate_limit_kbps = 1000;
  p.tx.stats_mode = StatsMode::kBytes;
  p.tx.next_hop = NextHop{Ipv4Addr(172, 16, 1, 2), net::MacAddr(0x42ULL)};
  p.rx.acl_verdict = Verdict::kDrop;
  p.rx.mirror = true;
  auto bytes = p.serialize();
  auto parsed = PreActions::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), p);
}

TEST(PreActionsTest, ParseRejectsGarbage) {
  std::vector<std::uint8_t> junk(5, 0xff);
  EXPECT_FALSE(PreActions::parse(junk).ok());
}

TEST(PreActionsTest, FixedSizeEncodeMatchesHeapEncode) {
  PreActions p;
  p.rule_version = 99;
  p.tx.nat_enabled = true;
  p.tx.nat_ip = Ipv4Addr(100, 64, 9, 9);
  p.tx.mirror = true;
  p.tx.mirror_target = NextHop{Ipv4Addr(172, 16, 0, 9), net::MacAddr(0x9ULL)};
  p.rx.acl_verdict = Verdict::kDrop;
  p.rx.rate_limit_kbps = 1234;
  const auto heap = p.serialize();
  ASSERT_EQ(heap.size(), PreActions::kWireSize);
  std::array<std::uint8_t, PreActions::kWireSize> fixed{};
  p.serialize_into(fixed);
  EXPECT_TRUE(std::equal(heap.begin(), heap.end(), fixed.begin()));
  auto parsed = PreActions::parse(fixed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), p);
}

TEST(PreActionsTest, ParseRejectsTruncatedFixedEncoding) {
  PreActions p;
  p.rule_version = 7;
  auto bytes = p.serialize();
  bytes.resize(PreActions::kWireSize - 1);
  EXPECT_FALSE(PreActions::parse(bytes).ok());
}

TEST(SessionStateTest, SnapshotFixedEncodeMatchesHeapEncode) {
  SessionState s;
  s.first_dir = FirstDirection::kRx;
  s.stats_mode = StatsMode::kBytes;
  s.decap_src_ip = Ipv4Addr(192, 168, 3, 4);
  const auto heap = s.serialize_snapshot();
  ASSERT_EQ(heap.size(), SessionState::kSnapshotWireSize);
  std::array<std::uint8_t, SessionState::kSnapshotWireSize> fixed{};
  s.serialize_snapshot_into(fixed);
  EXPECT_TRUE(std::equal(heap.begin(), heap.end(), fixed.begin()));
  auto parsed = SessionState::parse_snapshot(fixed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().first_dir, s.first_dir);
  EXPECT_EQ(parsed.value().stats_mode, s.stats_mode);
  EXPECT_EQ(parsed.value().decap_src_ip, s.decap_src_ip);
}

TEST(PreActionsTest, DirAccessor) {
  PreActions p;
  p.tx.rate_limit_kbps = 1;
  p.rx.rate_limit_kbps = 2;
  EXPECT_EQ(p.dir(Direction::kTx).rate_limit_kbps, 1u);
  EXPECT_EQ(p.dir(Direction::kRx).rate_limit_kbps, 2u);
}

TEST(TcpFsmTest, ThreeWayHandshake) {
  TcpFsm fsm;
  EXPECT_EQ(fsm.state(), TcpFsmState::kNone);
  EXPECT_TRUE(fsm.embryonic());
  fsm.on_packet(Direction::kTx, TcpFlags{.syn = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kSynSent);
  EXPECT_TRUE(fsm.embryonic());
  fsm.on_packet(Direction::kRx, TcpFlags{.syn = true, .ack = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kSynReceived);
  fsm.on_packet(Direction::kTx, TcpFlags{.ack = true});
  EXPECT_TRUE(fsm.established());
  EXPECT_FALSE(fsm.embryonic());
}

TEST(TcpFsmTest, GracefulClose) {
  TcpFsm fsm;
  fsm.on_packet(Direction::kTx, TcpFlags{.syn = true});
  fsm.on_packet(Direction::kRx, TcpFlags{.syn = true, .ack = true});
  fsm.on_packet(Direction::kTx, TcpFlags{.ack = true});
  fsm.on_packet(Direction::kTx, TcpFlags{.ack = true, .fin = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kFinWait);
  fsm.on_packet(Direction::kRx, TcpFlags{.ack = true, .fin = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kClosing);
  fsm.on_packet(Direction::kTx, TcpFlags{.ack = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kClosed);
  EXPECT_TRUE(fsm.closed());
}

TEST(TcpFsmTest, ResetFromAnyState) {
  TcpFsm fsm;
  fsm.on_packet(Direction::kTx, TcpFlags{.syn = true});
  fsm.on_packet(Direction::kRx, TcpFlags{.rst = true});
  EXPECT_EQ(fsm.state(), TcpFsmState::kReset);
  EXPECT_TRUE(fsm.closed());
}

TEST(TcpFsmTest, MidFlowPickupPromotesToEstablished) {
  // After FE failover, a new FE may see mid-flow ACK packets first.
  TcpFsm fsm;
  fsm.on_packet(Direction::kRx, TcpFlags{.ack = true, .psh = true});
  EXPECT_TRUE(fsm.established());
}

TEST(TcpFsmTest, DuplicateSynIsIdempotent) {
  TcpFsm fsm;
  fsm.on_packet(Direction::kTx, TcpFlags{.syn = true});
  fsm.on_packet(Direction::kTx, TcpFlags{.syn = true});  // retransmit
  EXPECT_EQ(fsm.state(), TcpFsmState::kSynSent);
}

TEST(SessionStateTest, FirstDirectionStickiness) {
  SessionState s;
  EXPECT_FALSE(s.initialized());
  s.observe(Direction::kRx, TcpFlags{.syn = true}, true, 64, 0);
  EXPECT_EQ(s.first_dir, FirstDirection::kRx);
  s.observe(Direction::kTx, TcpFlags{.syn = true, .ack = true}, true, 64, 1);
  EXPECT_EQ(s.first_dir, FirstDirection::kRx);  // first direction is sticky
  EXPECT_TRUE(s.initialized());
}

TEST(SessionStateTest, StatsOnlyWhenPolicyActive) {
  SessionState s;
  s.observe(Direction::kTx, TcpFlags{}, true, 100, 0);
  EXPECT_EQ(s.pkts_tx, 0u);
  s.stats_mode = StatsMode::kPacketsAndBytes;
  s.observe(Direction::kTx, TcpFlags{}, true, 100, 1);
  s.observe(Direction::kRx, TcpFlags{}, true, 200, 2);
  EXPECT_EQ(s.pkts_tx, 1u);
  EXPECT_EQ(s.pkts_rx, 1u);
  EXPECT_EQ(s.bytes_tx, 100u);
  EXPECT_EQ(s.bytes_rx, 200u);
}

TEST(SessionStateTest, UsedBytesCensus) {
  // Fig 15: most states are far smaller than the fixed 64B allocation.
  SessionState s;
  EXPECT_EQ(s.used_bytes(), 0u);
  s.observe(Direction::kTx, TcpFlags{.syn = true}, true, 64, 0);
  EXPECT_EQ(s.used_bytes(), 2u);  // first_dir + fsm
  s.decap_src_ip = Ipv4Addr(10, 9, 9, 9);
  EXPECT_EQ(s.used_bytes(), 6u);
  s.stats_mode = StatsMode::kPacketsAndBytes;
  EXPECT_EQ(s.used_bytes(), 23u);
  EXPECT_LT(s.used_bytes(), kStateAllocBytes);
}

TEST(SessionStateTest, SnapshotRoundTrip) {
  SessionState s;
  s.observe(Direction::kTx, TcpFlags{.syn = true}, true, 64, 0);
  s.decap_src_ip = Ipv4Addr(10, 1, 1, 1);
  s.stats_mode = StatsMode::kPackets;
  auto snap = SessionState::parse_snapshot(s.serialize_snapshot());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().first_dir, FirstDirection::kTx);
  EXPECT_EQ(snap.value().decap_src_ip, s.decap_src_ip);
  EXPECT_EQ(snap.value().stats_mode, StatsMode::kPackets);
}

TEST(SessionKeyTest, BothDirectionsShareKey) {
  auto k1 = SessionKey::from_packet(5, tx_tuple());
  auto k2 = SessionKey::from_packet(5, tx_tuple().reversed());
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(SessionKeyHash{}(k1), SessionKeyHash{}(k2));
  // Different tenants with the same 5-tuple must not collide (VPC in key).
  auto k3 = SessionKey::from_packet(6, tx_tuple());
  EXPECT_FALSE(k1 == k3);
}

TEST(SessionTableTest, EntryBytesReflectConfiguration) {
  SessionTable full{SessionTableConfig{}};
  SessionTable be_only{SessionTableConfig{.store_pre_actions = false}};
  SessionTable fe_cache{SessionTableConfig{.store_state = false}};
  EXPECT_EQ(full.entry_bytes(), kSessionKeyBytes + kPreActionsBytes + kStateAllocBytes);
  EXPECT_EQ(be_only.entry_bytes(), kSessionKeyBytes + kStateAllocBytes);
  EXPECT_EQ(fe_cache.entry_bytes(), kSessionKeyBytes + kPreActionsBytes);
  // The BE shape must be smaller: that margin is where Nezha's extra
  // #concurrent-flows capacity comes from.
  EXPECT_LT(be_only.entry_bytes(), full.entry_bytes());
}

TEST(SessionTableTest, FindOrCreateAndCapacity) {
  SessionTable t{SessionTableConfig{.capacity_bytes = 3 * 128}};
  ASSERT_EQ(t.entry_bytes(), 128u);
  for (int i = 0; i < 3; ++i) {
    FiveTuple ft = tx_tuple();
    ft.src_port = static_cast<std::uint16_t>(1000 + i);
    EXPECT_NE(t.find_or_create(SessionKey::from_packet(1, ft), 0), nullptr);
  }
  FiveTuple ft = tx_tuple();
  ft.src_port = 2000;
  EXPECT_EQ(t.find_or_create(SessionKey::from_packet(1, ft), 0), nullptr);
  EXPECT_EQ(t.insert_failures(), 1u);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.memory_bytes(), 3 * 128u);
}

TEST(SessionTableTest, ExistingEntryFoundEvenWhenFull) {
  SessionTable t{SessionTableConfig{.capacity_bytes = 128}};
  auto key = SessionKey::from_packet(1, tx_tuple());
  EXPECT_NE(t.find_or_create(key, 0), nullptr);
  EXPECT_NE(t.find_or_create(key, 1), nullptr);  // lookup, not insert
  EXPECT_EQ(t.insert_failures(), 0u);
}

TEST(SessionTableTest, AgingRespectsFsmDependentTtl) {
  SessionTable t{SessionTableConfig{
      .established_ttl = seconds(8), .embryonic_ttl = seconds(1)}};
  auto syn_key = SessionKey::from_packet(1, tx_tuple());
  auto* syn_entry = t.find_or_create(syn_key, 0);
  syn_entry->state.observe(Direction::kTx, TcpFlags{.syn = true}, true, 64, 0);

  FiveTuple est_ft = tx_tuple();
  est_ft.src_port = 50000;
  auto est_key = SessionKey::from_packet(1, est_ft);
  auto* est_entry = t.find_or_create(est_key, 0);
  est_entry->state.observe(Direction::kTx, TcpFlags{.syn = true}, true, 64, 0);
  est_entry->state.observe(Direction::kRx, TcpFlags{.syn = true, .ack = true},
                           true, 64, 0);
  est_entry->state.observe(Direction::kTx, TcpFlags{.ack = true}, true, 64, 0);

  // After 2s: the embryonic (SYN-flood-style) session ages out (§7.3), the
  // established one survives.
  EXPECT_EQ(t.age_out(seconds(2)), 1u);
  EXPECT_EQ(t.find(syn_key), nullptr);
  EXPECT_NE(t.find(est_key), nullptr);
  // After 10s idle, the established session goes too.
  EXPECT_EQ(t.age_out(seconds(10)), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SessionTableTest, ActivityRefreshesAging) {
  SessionTable t{SessionTableConfig{.established_ttl = seconds(8)}};
  auto key = SessionKey::from_packet(1, tx_tuple());
  auto* e = t.find_or_create(key, 0);
  e->state.observe(Direction::kRx, TcpFlags{.ack = true}, true, 64,
                   seconds(7));
  EXPECT_EQ(t.age_out(seconds(8)), 0u);  // refreshed at t=7
  EXPECT_EQ(t.age_out(seconds(16)), 1u);
}

TEST(SessionTableTest, InvalidatePreActionsKeepsState) {
  SessionTable t{SessionTableConfig{}};
  auto key = SessionKey::from_packet(1, tx_tuple());
  auto* e = t.find_or_create(key, 0);
  t.set_pre_actions(*e, PreActions{});
  e->state.observe(Direction::kTx, TcpFlags{.syn = true}, true, 64, 0);
  t.invalidate_pre_actions();
  ASSERT_NE(t.find(key), nullptr);
  EXPECT_EQ(t.pre_actions(*t.find(key)), nullptr);
  EXPECT_EQ(t.find(key)->state.first_dir, FirstDirection::kTx);
}

TEST(SessionTableTest, InvalidateOnPureFlowCacheErases) {
  SessionTable t{SessionTableConfig{.store_state = false}};
  auto key = SessionKey::from_packet(1, tx_tuple());
  t.find_or_create(key, 0);
  t.invalidate_pre_actions();
  EXPECT_EQ(t.size(), 0u);
}

TEST(SessionTableTest, ClosedSessionsAgeFastest) {
  SessionTable t{SessionTableConfig{.closed_ttl = milliseconds(100)}};
  auto key = SessionKey::from_packet(1, tx_tuple());
  auto* e = t.find_or_create(key, 0);
  e->state.observe(Direction::kTx, TcpFlags{.rst = true}, true, 64, 0);
  EXPECT_EQ(t.age_out(milliseconds(150)), 1u);
}

}  // namespace
}  // namespace nezha::flow
