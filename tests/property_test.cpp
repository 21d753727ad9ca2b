// Property-based and parameterized tests: randomized sweeps asserting the
// invariants the architecture leans on — codec round-trips, reference-model
// equivalence for the matchers, accounting conservation, and the stateful
// finalization truth table, all deterministic from fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "src/common/rng.h"
#include "src/core/testbed.h"
#include "src/flow/session_table.h"
#include "src/net/packet.h"
#include "src/nf/stateful.h"
#include "src/sim/event_loop.h"
#include "src/tables/acl.h"
#include "src/tables/lpm.h"
#include "src/vswitch/resources.h"
#include "src/workload/cps_workload.h"

namespace nezha {
namespace {

common::Rng make_rng(std::uint64_t salt) { return common::Rng(0xabcd00 + salt); }

net::FiveTuple random_tuple(common::Rng& rng) {
  return net::FiveTuple{
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      rng.chance(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp};
}

// ---------------------------------------------------------------- packets

// gtest names each case after the raw bytes of its PacketCase, so the struct
// has no padding: `fill_a` and `fill_b` take the bytes the compiler would
// otherwise pad. Left as padding they were uninitialised, and the case names
// changed from one run to the next. Their values keep every case under the
// name the test listing has carried so far; the test body never reads them.
struct PacketCase {
  bool tcp;
  std::uint8_t fill_a;
  std::uint16_t payload;
  bool encap;
  std::array<std::uint8_t, 3> fill_b;
  int carrier_tlvs;  // -1 = no carrier
};
static_assert(sizeof(PacketCase) == 12, "PacketCase must have no padding");

class PacketRoundTrip : public ::testing::TestWithParam<PacketCase> {};

TEST_P(PacketRoundTrip, SerializeParseIdentity) {
  const PacketCase& c = GetParam();
  common::Rng rng = make_rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    net::FiveTuple ft = random_tuple(rng);
    ft.proto = c.tcp ? net::IpProto::kTcp : net::IpProto::kUdp;
    net::Packet pkt =
        c.tcp ? net::make_tcp_packet(
                    ft, net::TcpFlags::from_byte(
                            static_cast<std::uint8_t>(rng.uniform_u64(0, 31))),
                    c.payload, static_cast<std::uint32_t>(rng.uniform_u64(0, 0xffffff)))
              : net::make_udp_packet(ft, c.payload,
                                     static_cast<std::uint32_t>(
                                         rng.uniform_u64(0, 0xffffff)));
    if (c.encap) {
      pkt.encap(net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                net::MacAddr(rng.next() & 0xffffffffffffULL),
                net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                net::MacAddr(rng.next() & 0xffffffffffffULL));
      if (c.carrier_tlvs >= 0) {
        net::CarrierHeader carrier;
        for (int t = 0; t < c.carrier_tlvs; ++t) {
          std::vector<std::uint8_t> value(rng.uniform_u64(0, 40));
          for (auto& b : value) b = static_cast<std::uint8_t>(rng.next());
          carrier.add(static_cast<net::CarrierTlvType>(
                          rng.uniform_u64(1, 5)),
                      std::move(value));
        }
        pkt.carrier = std::move(carrier);
      }
    }
    const auto bytes = pkt.serialize();
    ASSERT_EQ(bytes.size(), pkt.wire_size());
    auto parsed = net::Packet::parse(bytes);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().inner, pkt.inner);
    EXPECT_EQ(parsed.value().overlay, pkt.overlay);
    EXPECT_EQ(parsed.value().carrier, pkt.carrier);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PacketRoundTrip,
    ::testing::Values(
        PacketCase{true, 0x00, 0, false, {0x00, 0x00, 0x00}, -1},
        PacketCase{false, 0x45, 0, false, {0xB4, 0xE6, 0xDB}, -1},
        PacketCase{true, 0xE5, 64, false, {0x45, 0xAF, 0x05}, -1},
        PacketCase{true, 0x00, 1400, false, {0xFF, 0xFF, 0xFF}, -1},
        PacketCase{true, 0x00, 0, true, {0x00, 0x00, 0x00}, -1},
        PacketCase{false, 0x45, 512, true, {0x00, 0x00, 0x00}, -1},
        PacketCase{true, 0xFF, 64, true, {0xFF, 0xFF, 0xFF}, 0},
        PacketCase{true, 0x00, 64, true, {0x32, 0xE8, 0xDB}, 1},
        PacketCase{false, 0x00, 200, true, {0x00, 0x00, 0x00}, 3},
        PacketCase{true, 0x56, 1400, true, {0xB4, 0xE6, 0xDB},
                   net::CarrierHeader::kMaxTlvs}));

TEST(PacketFuzz, ParseNeverMisbehavesOnRandomBytes) {
  common::Rng rng = make_rng(2);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.uniform_u64(0, 200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    // Must either parse or return an error — never crash or hang.
    (void)net::Packet::parse(junk);
  }
}

TEST(PacketFuzz, TruncatedRealPacketsRejectOrParse) {
  common::Rng rng = make_rng(3);
  net::Packet pkt = net::make_tcp_packet(random_tuple(rng),
                                         net::TcpFlags{.syn = true}, 300, 5);
  pkt.encap(net::Ipv4Addr(1, 2, 3, 4), net::MacAddr(1ULL),
            net::Ipv4Addr(5, 6, 7, 8), net::MacAddr(2ULL));
  const auto bytes = pkt.serialize();
  for (std::size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(cut));
    (void)net::Packet::parse(prefix);  // robustness only
  }
}

// ------------------------------------------------------------ five-tuples

TEST(FiveTupleProperty, CanonicalInvariants) {
  common::Rng rng = make_rng(4);
  for (int i = 0; i < 5000; ++i) {
    const net::FiveTuple ft = random_tuple(rng);
    EXPECT_EQ(ft.canonical(), ft.reversed().canonical());
    EXPECT_EQ(ft.canonical().canonical(), ft.canonical());  // idempotent
    // Canonicalization preserves the endpoint set.
    const auto c = ft.canonical();
    const bool same = (c == ft) || (c == ft.reversed());
    EXPECT_TRUE(same);
  }
}

TEST(FiveTupleProperty, HashUniformityChiSquared) {
  common::Rng rng = make_rng(5);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 64000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[net::flow_hash(random_tuple(rng)) % kBuckets];
  }
  double chi2 = 0;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int b : counts) {
    chi2 += (b - expected) * (b - expected) / expected;
  }
  // 15 dof; P(chi2 > 37.7) ≈ 0.001.
  EXPECT_LT(chi2, 37.7);
}

// ---------------------------------------------------------------- LPM

TEST(LpmProperty, MatchesBruteForceReference) {
  common::Rng rng = make_rng(6);
  tables::LpmTable<int> lpm;
  std::vector<std::pair<tables::Prefix, int>> reference;
  for (int i = 0; i < 300; ++i) {
    tables::Prefix p{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                     static_cast<std::uint8_t>(rng.uniform_u64(0, 32))};
    lpm.insert(p, i);
    // The reference keeps only the latest value per distinct prefix.
    auto it = std::find_if(reference.begin(), reference.end(),
                           [&](const auto& e) {
                             return e.first.length == p.length &&
                                    e.first.network() == p.network();
                           });
    if (it != reference.end()) it->second = i;
    else reference.emplace_back(p, i);
  }
  for (int q = 0; q < 3000; ++q) {
    const net::Ipv4Addr ip(static_cast<std::uint32_t>(rng.next()));
    // Brute force: longest matching prefix, latest value.
    const std::pair<tables::Prefix, int>* best = nullptr;
    for (const auto& e : reference) {
      if (!e.first.contains(ip)) continue;
      if (best == nullptr || e.first.length > best->first.length) best = &e;
    }
    const int* got = lpm.lookup(ip);
    if (best == nullptr) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, best->second);
    }
  }
}

// ---------------------------------------------------------------- ACL

TEST(AclProperty, MatchesBruteForceReference) {
  common::Rng rng = make_rng(7);
  tables::AclTable acl(flow::Verdict::kAccept);
  struct Ref {
    tables::AclRule rule;
  };
  std::vector<tables::AclRule> rules;
  for (int i = 0; i < 120; ++i) {
    tables::AclRule r;
    r.priority = static_cast<std::uint32_t>(rng.uniform_u64(0, 50));
    r.src = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                           static_cast<std::uint8_t>(rng.uniform_u64(0, 16))};
    r.dst = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                           static_cast<std::uint8_t>(rng.uniform_u64(0, 16))};
    const std::uint16_t lo = static_cast<std::uint16_t>(rng.uniform_u64(0, 60000));
    r.dst_ports = tables::PortRange{
        lo, static_cast<std::uint16_t>(lo + rng.uniform_u64(0, 5000))};
    if (rng.chance(0.3)) r.proto = net::IpProto::kTcp;
    if (rng.chance(0.3)) r.direction = flow::Direction::kRx;
    r.verdict = rng.chance(0.5) ? flow::Verdict::kDrop : flow::Verdict::kAccept;
    rules.push_back(r);
    acl.add_rule(r);
  }
  // Reference evaluator: stable sort by priority mirrors insertion order
  // within equal priorities.
  std::stable_sort(rules.begin(), rules.end(),
                   [](const tables::AclRule& a, const tables::AclRule& b) {
                     return a.priority < b.priority;
                   });
  auto reference = [&](const net::FiveTuple& ft, flow::Direction dir) {
    for (const auto& r : rules) {
      if (r.direction && *r.direction != dir) continue;
      if (r.proto && *r.proto != ft.proto) continue;
      if (!r.src.contains(ft.src_ip) || !r.dst.contains(ft.dst_ip)) continue;
      if (!r.src_ports.contains(ft.src_port) ||
          !r.dst_ports.contains(ft.dst_port)) {
        continue;
      }
      return r.verdict;
    }
    return flow::Verdict::kAccept;
  };
  for (int q = 0; q < 3000; ++q) {
    const net::FiveTuple ft = random_tuple(rng);
    const flow::Direction dir =
        rng.chance(0.5) ? flow::Direction::kTx : flow::Direction::kRx;
    EXPECT_EQ(acl.lookup(ft, dir), reference(ft, dir));
  }
}

// ----------------------------------------------------------- finalization

TEST(FinalizeProperty, ExhaustiveTruthTable) {
  // Exhaustive over verdict(tx) × verdict(rx) × first_dir × packet dir:
  // a packet passes iff its own pre-action accepts, or the session was
  // initiated from the opposite direction whose pre-action accepts.
  for (int vt = 0; vt < 2; ++vt) {
    for (int vr = 0; vr < 2; ++vr) {
      for (int fd = 0; fd < 3; ++fd) {
        for (int d = 0; d < 2; ++d) {
          flow::PreActions pre;
          pre.tx.acl_verdict = vt ? flow::Verdict::kDrop : flow::Verdict::kAccept;
          pre.rx.acl_verdict = vr ? flow::Verdict::kDrop : flow::Verdict::kAccept;
          flow::SessionState state;
          state.first_dir = static_cast<flow::FirstDirection>(fd);
          const auto dir = static_cast<flow::Direction>(d);

          const bool own_accepts =
              pre.dir(dir).acl_verdict == flow::Verdict::kAccept;
          const flow::Direction opp = flow::reverse(dir);
          const bool initiated_opp =
              (state.first_dir == flow::FirstDirection::kTx &&
               opp == flow::Direction::kTx) ||
              (state.first_dir == flow::FirstDirection::kRx &&
               opp == flow::Direction::kRx);
          const bool opp_accepts =
              pre.dir(opp).acl_verdict == flow::Verdict::kAccept;
          const bool expect_accept =
              own_accepts || (initiated_opp && opp_accepts);

          EXPECT_EQ(nf::finalize_action(dir, pre, state),
                    expect_accept ? flow::Verdict::kAccept
                                  : flow::Verdict::kDrop)
              << "vt=" << vt << " vr=" << vr << " fd=" << fd << " d=" << d;
        }
      }
    }
  }
}

// -------------------------------------------------------- session table

TEST(SessionTableProperty, MemoryAccountingConservation) {
  common::Rng rng = make_rng(8);
  flow::SessionTable table{flow::SessionTableConfig{}};
  std::vector<flow::SessionKey> live;
  for (int op = 0; op < 5000; ++op) {
    EXPECT_EQ(table.memory_bytes(), table.size() * table.entry_bytes());
    if (live.empty() || rng.chance(0.6)) {
      const auto key = flow::SessionKey::from_packet(
          static_cast<std::uint32_t>(rng.uniform_u64(0, 3)),
          random_tuple(rng));
      if (table.find(key) == nullptr) live.push_back(key);
      ASSERT_NE(table.find_or_create(key, op), nullptr);
    } else {
      const std::size_t idx = rng.uniform_u64(0, live.size() - 1);
      EXPECT_TRUE(table.erase(live[idx]));
      live.erase(live.begin() + static_cast<long>(idx));
    }
    EXPECT_EQ(table.size(), live.size());
  }
}

TEST(SessionTableProperty, AgeOutRemovesExactlyExpired) {
  common::Rng rng = make_rng(9);
  flow::SessionTable table{flow::SessionTableConfig{
      .established_ttl = common::seconds(8),
      .embryonic_ttl = common::seconds(1)}};
  std::map<int, common::TimePoint> expiry;  // index → expiry time
  std::vector<flow::SessionKey> keys;
  for (int i = 0; i < 400; ++i) {
    const auto key = flow::SessionKey::from_packet(1, random_tuple(rng));
    auto* e = table.find_or_create(key, 0);
    if (e == nullptr) continue;
    const auto last =
        static_cast<common::TimePoint>(rng.uniform_u64(0, common::seconds(4)));
    const bool established = rng.chance(0.5);
    if (established) {
      e->state.observe(flow::Direction::kTx, net::TcpFlags{.ack = true}, true,
                       64, last);
    } else {
      e->state.observe(flow::Direction::kTx, net::TcpFlags{.syn = true}, true,
                       64, last);
    }
    keys.push_back(key);
    expiry[i] = last + (established ? common::seconds(8) : common::seconds(1));
  }
  const common::TimePoint cutoff = common::seconds(5);
  std::size_t expected_removed = 0;
  for (const auto& [idx, at] : expiry) {
    if (at <= cutoff) ++expected_removed;
  }
  EXPECT_EQ(table.age_out(cutoff), expected_removed);
}

// ------------------------------------------------------------- CPU model

TEST(CpuModelProperty, ConservationAndMonotonicity) {
  common::Rng rng = make_rng(10);
  vswitch::CpuModel cpu(vswitch::CpuConfig{
      .cores = 2, .hz_per_core = 1e9,
      .max_queue_delay = common::milliseconds(1)});
  common::TimePoint now = 0;
  common::Duration prev_busy = 0;
  std::uint64_t offered = 0;
  for (int i = 0; i < 20000; ++i) {
    now += static_cast<common::Duration>(rng.exponential(500.0));
    const auto out = cpu.consume(rng.uniform(100.0, 5000.0), now);
    ++offered;
    if (out.accepted) {
      EXPECT_GE(out.done, now);
      EXPECT_GE(out.queue_delay, 0);
      EXPECT_LE(out.queue_delay, common::milliseconds(1));
    }
    const common::Duration busy = cpu.busy_integral(now);
    EXPECT_GE(busy, prev_busy);      // monotone
    EXPECT_LE(busy, now);            // can't be busier than wall time
    prev_busy = busy;
  }
  EXPECT_EQ(cpu.accepted() + cpu.rejected(), offered);
  EXPECT_GT(cpu.rejected(), 0u);  // the offered load exceeds capacity
}

// ------------------------------------------------------------ event loop

TEST(EventLoopProperty, RandomScheduleCancelOrdering) {
  common::Rng rng = make_rng(11);
  sim::EventLoop loop;
  std::vector<std::pair<common::TimePoint, int>> fired;
  std::vector<sim::EventId> ids;
  std::vector<bool> cancelled(3000, false);
  for (int i = 0; i < 3000; ++i) {
    const auto at = static_cast<common::TimePoint>(rng.uniform_u64(0, 1000000));
    ids.push_back(loop.schedule_at(at, [&fired, &loop, i]() {
      fired.emplace_back(loop.now(), i);
    }));
  }
  for (int i = 0; i < 3000; ++i) {
    if (rng.chance(0.3)) {
      loop.cancel(ids[static_cast<std::size_t>(i)]);
      cancelled[static_cast<std::size_t>(i)] = true;
    }
  }
  loop.run();
  std::size_t expected = 0;
  for (bool c : cancelled) {
    if (!c) ++expected;
  }
  EXPECT_EQ(fired.size(), expected);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);  // time-ordered
  }
  for (const auto& [t, idx] : fired) {
    EXPECT_FALSE(cancelled[static_cast<std::size_t>(idx)]);
  }
}

// ----------------------------------------- indexed-path differentials
//
// The ACL tuple-space index, the LPM populated-length bitmask, and the
// session table's TTL wheel must be pure optimizations: same answers as the
// straight-line reference evaluators, across mutation patterns that stress
// the incremental machinery (lazy rebuild, bitmask maintenance, re-queueing
// across multiple sweeps).

tables::AclRule random_acl_rule(common::Rng& rng) {
  tables::AclRule r;
  r.priority = static_cast<std::uint32_t>(rng.uniform_u64(0, 40));
  r.src = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                         static_cast<std::uint8_t>(rng.uniform_u64(0, 16))};
  r.dst = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                         static_cast<std::uint8_t>(rng.uniform_u64(0, 16))};
  const auto lo = static_cast<std::uint16_t>(rng.uniform_u64(0, 60000));
  r.src_ports = tables::PortRange{
      lo, static_cast<std::uint16_t>(lo + rng.uniform_u64(0, 8000))};
  const auto dlo = static_cast<std::uint16_t>(rng.uniform_u64(0, 60000));
  r.dst_ports = tables::PortRange{
      dlo, static_cast<std::uint16_t>(dlo + rng.uniform_u64(0, 8000))};
  switch (rng.uniform_u64(0, 3)) {
    case 0: r.proto = net::IpProto::kTcp; break;
    case 1: r.proto = net::IpProto::kUdp; break;
    case 2: r.proto = net::IpProto::kIcmp; break;
    default: break;  // wildcard
  }
  switch (rng.uniform_u64(0, 2)) {
    case 0: r.direction = flow::Direction::kTx; break;
    case 1: r.direction = flow::Direction::kRx; break;
    default: break;  // both
  }
  r.verdict = rng.chance(0.5) ? flow::Verdict::kDrop : flow::Verdict::kAccept;
  return r;
}

TEST(AclProperty, IndexedMatchesReferenceAcrossMutations) {
  common::Rng rng = make_rng(20);
  tables::AclTable acl(flow::Verdict::kAccept);
  std::vector<tables::AclRule> rules;

  // Reference: the pre-index semantics — scan in (priority, insertion)
  // order, first match wins.
  auto reference = [&](const net::FiveTuple& ft, flow::Direction dir) {
    std::vector<const tables::AclRule*> sorted;
    sorted.reserve(rules.size());
    for (const auto& r : rules) sorted.push_back(&r);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const tables::AclRule* a, const tables::AclRule* b) {
                       return a->priority < b->priority;
                     });
    for (const auto* r : sorted) {
      if (r->direction && *r->direction != dir) continue;
      if (r->proto && *r->proto != ft.proto) continue;
      if (!r->src.contains(ft.src_ip) || !r->dst.contains(ft.dst_ip)) continue;
      if (!r->src_ports.contains(ft.src_port) ||
          !r->dst_ports.contains(ft.dst_port)) {
        continue;
      }
      return r->verdict;
    }
    return flow::Verdict::kAccept;
  };
  auto random_query_tuple = [&]() {
    net::FiveTuple ft = random_tuple(rng);
    if (rng.chance(0.2)) ft.proto = net::IpProto::kIcmp;
    return ft;
  };

  // Interleave rule additions (and one clear) with query batches so the
  // lazy rebuild is exercised on every dirty→clean edge.
  for (int gen = 0; gen < 8; ++gen) {
    if (gen == 4) {
      acl.clear();
      rules.clear();
    }
    const int batch = 30 + gen * 10;
    for (int i = 0; i < batch; ++i) {
      const tables::AclRule r = random_acl_rule(rng);
      acl.add_rule(r);
      rules.push_back(r);
    }
    for (int q = 0; q < 400; ++q) {
      const net::FiveTuple ft = random_query_tuple();
      const flow::Direction dir =
          rng.chance(0.5) ? flow::Direction::kTx : flow::Direction::kRx;
      ASSERT_EQ(acl.lookup(ft, dir), reference(ft, dir))
          << "gen " << gen << " query " << q;
    }
  }
}

TEST(LpmProperty, EraseMaintainsPopulatedLengths) {
  common::Rng rng = make_rng(21);
  tables::LpmTable<int> lpm;
  // Few distinct lengths so erasures routinely empty out a whole length —
  // the populated-bitmask clear path.
  const std::uint8_t lengths[] = {0, 8, 12, 24, 32};
  std::map<std::pair<std::uint8_t, std::uint32_t>, int> reference;
  std::vector<tables::Prefix> inserted;
  int next_value = 0;
  for (int op = 0; op < 2000; ++op) {
    if (inserted.empty() || rng.chance(0.6)) {
      tables::Prefix p{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                       lengths[rng.uniform_u64(0, 4)]};
      lpm.insert(p, next_value);
      reference[{p.length, p.network()}] = next_value;
      inserted.push_back(p);
      ++next_value;
    } else {
      const std::size_t idx = rng.uniform_u64(0, inserted.size() - 1);
      const tables::Prefix p = inserted[idx];
      inserted.erase(inserted.begin() + static_cast<long>(idx));
      const bool present = reference.erase({p.length, p.network()}) > 0;
      EXPECT_EQ(lpm.erase(p), present);
    }
    if (op % 50 != 0) continue;
    for (int q = 0; q < 60; ++q) {
      const net::Ipv4Addr ip(static_cast<std::uint32_t>(rng.next()));
      const int* best = nullptr;
      int best_len = -1;
      for (const auto& [key, v] : reference) {
        const tables::Prefix p{net::Ipv4Addr(key.second), key.first};
        if (p.contains(ip) && key.first > best_len) {
          best = &v;
          best_len = key.first;
        }
      }
      const int* got = lpm.lookup(ip);
      if (best == nullptr) {
        ASSERT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(*got, *best);
      }
    }
  }
  EXPECT_EQ(lpm.size(), reference.size());
}

TEST(SessionTableProperty, IncrementalAgingMatchesFullScanAcrossSweeps) {
  common::Rng rng = make_rng(22);
  flow::SessionTable table{flow::SessionTableConfig{
      .established_ttl = common::seconds(8),
      .embryonic_ttl = common::seconds(1),
      .closed_ttl = common::milliseconds(100)}};
  std::set<int> live;  // key index → alive in the model
  std::vector<flow::SessionKey> keys;
  for (int i = 0; i < 200; ++i) {
    net::FiveTuple ft = random_tuple(rng);
    ft.proto = net::IpProto::kTcp;
    keys.push_back(flow::SessionKey::from_packet(1, ft));
  }
  common::TimePoint now = 0;
  for (int round = 0; round < 60; ++round) {
    now += static_cast<common::Duration>(
        rng.uniform_u64(common::milliseconds(50), common::milliseconds(800)));
    // Mutate a random subset through the datapath pattern: observe + touch.
    for (int m = 0; m < 30; ++m) {
      const int idx = static_cast<int>(rng.uniform_u64(0, keys.size() - 1));
      auto* e = table.find_or_create(keys[static_cast<std::size_t>(idx)], now);
      ASSERT_NE(e, nullptr);
      live.insert(idx);
      net::TcpFlags flags;
      switch (rng.uniform_u64(0, 9)) {
        case 0: flags.syn = true; break;
        case 1: flags.rst = true; break;        // TTL shrinks to closed_ttl
        case 2: flags.fin = true; flags.ack = true; break;
        default: flags.ack = true; break;
      }
      e->state.observe(rng.chance(0.5) ? flow::Direction::kTx
                                       : flow::Direction::kRx,
                       flags, true, 64, now);
      table.touch(e);
    }
    if (rng.chance(0.15) && !live.empty()) {
      const int victim = *live.begin();
      EXPECT_TRUE(table.erase(keys[static_cast<std::size_t>(victim)]));
      live.erase(victim);
    }
    // Full-scan oracle evaluated just before the sweep: exactly the entries
    // whose idle time passed their FSM-dependent TTL must go.
    std::set<int> expected_gone;
    for (const int idx : live) {
      const auto* e = table.find(keys[static_cast<std::size_t>(idx)]);
      ASSERT_NE(e, nullptr);
      if (now - e->state.last_active >= table.ttl_of(*e)) {
        expected_gone.insert(idx);
      }
    }
    std::size_t evict_cb_count = 0;
    const std::size_t removed = table.age_out(
        now, [&](const flow::SessionKey&, const flow::SessionEntry&) {
          ++evict_cb_count;
        });
    EXPECT_EQ(removed, expected_gone.size()) << "round " << round;
    EXPECT_EQ(evict_cb_count, removed);
    for (const int idx : expected_gone) {
      EXPECT_EQ(table.find(keys[static_cast<std::size_t>(idx)]), nullptr);
      live.erase(idx);
    }
    for (const int idx : live) {
      EXPECT_NE(table.find(keys[static_cast<std::size_t>(idx)]), nullptr);
    }
    EXPECT_EQ(table.size(), live.size());
  }
}

// Pre-action interning against a reference map: after every operation each
// live entry reads back exactly the value last cached on it (or none), and
// the pool never holds more slots than the most distinct values ever live
// at once. Values are drawn from three shared ones and a stream of unique
// ones, so ids are shared, released to zero and reused.
TEST(SessionTableProperty, PreActionPoolMatchesReferenceMap) {
  common::Rng rng = make_rng(23);
  flow::SessionTable table{flow::SessionTableConfig{
      .established_ttl = common::seconds(2),
      .embryonic_ttl = common::milliseconds(500),
      .closed_ttl = common::milliseconds(100)}};
  const auto value = [](std::uint32_t tag) {
    flow::PreActions p;
    p.rule_version = tag;
    p.tx.rate_limit_kbps = tag * 7;
    p.rx.nat_port = static_cast<std::uint16_t>(tag);
    return p;
  };
  std::vector<flow::SessionKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(flow::SessionKey::from_packet(2, random_tuple(rng)));
  }
  // Reference: key index → the value cached on it (nullopt = none).
  std::map<std::size_t, std::optional<flow::PreActions>> ref;
  std::uint32_t next_unique = 100;
  std::size_t peak_distinct = 0;  // since construction or the last clear()
  std::size_t max_distinct = 0;
  common::TimePoint now = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::size_t k = rng.uniform_u64(0, keys.size() - 1);
    flow::SessionEntry* e = table.find(keys[k]);
    switch (rng.uniform_u64(0, 9)) {
      case 0: case 1:
        if (table.find_or_create(keys[k], now) != nullptr && e == nullptr) {
          ref[k] = std::nullopt;
        }
        break;
      case 2: case 3: case 4:
        if (e != nullptr) {
          const flow::PreActions v = rng.chance(0.7)
              ? value(static_cast<std::uint32_t>(rng.uniform_u64(1, 3)))
              : value(next_unique++);
          EXPECT_EQ(table.set_pre_actions(*e, v), v);
          ref[k] = v;
        }
        break;
      case 5:
        if (e != nullptr) {
          table.clear_pre_actions(*e);
          ref[k] = std::nullopt;
        }
        break;
      case 6:
        EXPECT_EQ(table.erase(keys[k]), e != nullptr);
        ref.erase(k);
        break;
      case 7: {
        now += static_cast<common::Duration>(
            rng.uniform_u64(0, common::milliseconds(400)));
        table.age_out(now, [&](const flow::SessionKey& key,
                               const flow::SessionEntry& gone) {
          const auto it = std::find(keys.begin(), keys.end(), key);
          ASSERT_NE(it, keys.end());
          const std::size_t idx = static_cast<std::size_t>(it - keys.begin());
          const flow::PreActions* cached = table.pre_actions(gone);
          ASSERT_EQ(cached != nullptr, ref.at(idx).has_value());
          if (cached != nullptr) {
            EXPECT_EQ(*cached, *ref.at(idx));
          }
          ref.erase(idx);
        });
        break;
      }
      case 8:
        if (rng.chance(0.2)) {
          table.invalidate_pre_actions();
          for (auto& [idx, v] : ref) v.reset();
        }
        break;
      default:
        if (rng.chance(0.05)) {
          table.clear();
          ref.clear();
          peak_distinct = 0;
        }
        break;
    }
    ASSERT_EQ(table.size(), ref.size()) << "step " << step;
    std::vector<flow::PreActions> distinct;
    for (const auto& [idx, v] : ref) {
      const flow::SessionEntry* live = table.find(keys[idx]);
      ASSERT_NE(live, nullptr) << "step " << step;
      const flow::PreActions* cached = table.pre_actions(*live);
      ASSERT_EQ(cached != nullptr, v.has_value()) << "step " << step;
      if (cached == nullptr) continue;
      EXPECT_EQ(*cached, *v) << "step " << step;
      if (std::find(distinct.begin(), distinct.end(), *v) == distinct.end()) {
        distinct.push_back(*v);
      }
    }
    peak_distinct = std::max(peak_distinct, distinct.size());
    max_distinct = std::max(max_distinct, distinct.size());
    ASSERT_LE(table.pre_action_pool_size(), peak_distinct) << "step " << step;
  }
  EXPECT_GT(max_distinct, 3u);  // unique values were live beside shared ones
}

// ----------------------------------------------------------- determinism

struct MiniRunStats {
  std::uint64_t delivered = 0;
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::size_t sessions = 0;
  bool operator==(const MiniRunStats&) const = default;
};

// End-to-end closed-loop run on the standard testbed; everything in the
// result is a pure function of the seed. This is the guard that the slab
// event loop, TTL-wheel aging, and indexed tables did not perturb
// simulation outcomes — only wall-clock speed.
MiniRunStats run_mini_testbed(std::uint64_t seed, int concurrency = 16) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 3;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  core::Testbed bed(cfg);

  constexpr std::uint32_t kVpc = 3;
  constexpr tables::VnicId kServer = 50;
  vswitch::VnicConfig server;
  server.id = kServer;
  server.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 0, 50)};
  bed.add_vnic(0, server);

  vswitch::VnicConfig client;
  client.id = 1;
  client.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, 1, 1)};
  bed.add_vnic(1, client);

  workload::CpsWorkloadConfig w;
  w.concurrency = concurrency;
  w.seed = seed;
  workload::CpsWorkload cps(bed, 1, client.id, 0, kServer, w);
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();
  cps.start();
  bed.run_for(common::milliseconds(400));
  cps.stop();

  MiniRunStats out;
  out.delivered = bed.network().delivered();
  out.completed = cps.completed();
  out.attempted = cps.attempted();
  out.sessions = bed.vswitch(0).sessions().size();
  return out;
}

TEST(DeterminismProperty, SameSeedIdenticalEndToEndStats) {
  const MiniRunStats a = run_mini_testbed(77);
  const MiniRunStats b = run_mini_testbed(77);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.delivered, 0u);
  EXPECT_GT(a.completed, 0u);
  // Non-vacuity: the run actually responds to its inputs (a capacity-
  // limited closed loop can coincide across nearby seeds, so vary the
  // offered load instead).
  const MiniRunStats c = run_mini_testbed(77, 8);
  EXPECT_FALSE(a == c);
}

// ------------------------------------------------------ pre-action codec

class PreActionsCodec : public ::testing::TestWithParam<int> {};

TEST_P(PreActionsCodec, RandomRoundTrips) {
  common::Rng rng = make_rng(static_cast<std::uint64_t>(12 + GetParam()));
  for (int i = 0; i < 500; ++i) {
    flow::PreActions p;
    p.rule_version = static_cast<std::uint32_t>(rng.next());
    for (flow::DirPreAction* d : {&p.tx, &p.rx}) {
      d->acl_verdict =
          rng.chance(0.5) ? flow::Verdict::kDrop : flow::Verdict::kAccept;
      d->nat_enabled = rng.chance(0.3);
      d->nat_ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
      d->nat_port = static_cast<std::uint16_t>(rng.next());
      d->rate_limit_kbps = static_cast<std::uint32_t>(rng.next());
      d->stats_mode = static_cast<flow::StatsMode>(rng.uniform_u64(0, 3));
      d->mirror = rng.chance(0.2);
      d->next_hop.ip = net::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
      d->next_hop.mac = net::MacAddr(rng.next() & 0xffffffffffffULL);
    }
    auto parsed = flow::PreActions::parse(p.serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreActionsCodec, ::testing::Range(0, 4));

}  // namespace
}  // namespace nezha
