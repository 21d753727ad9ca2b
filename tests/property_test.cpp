// Property-based and parameterized tests: randomized sweeps asserting the
// invariants the architecture leans on — codec round-trips, reference-model
// equivalence for the matchers, accounting conservation, and the stateful
// finalization truth table, all deterministic from fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
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

// -------------------------------------------------------------- histogram

// The all-buckets histogram: every bucket allocated up front and every
// read a plain index. The sparse common::Histogram must give exactly these
// answers.
struct DenseHistogram {
  double lo, hi, width;
  std::vector<std::uint64_t> counts;
  std::uint64_t underflow = 0, overflow = 0, total = 0;
  double sum = 0.0, min = 0.0, max = 0.0;  // bounded Percentiles' extras

  DenseHistogram(double l, double h, std::size_t buckets)
      : lo(l), hi(h), width((h - l) / static_cast<double>(buckets)),
        counts(buckets, 0) {}

  void add(double x) {
    if (total == 0) {
      min = max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    sum += x;
    ++total;
    if (x < lo) {
      ++underflow;
    } else if (x >= hi) {
      ++overflow;
    } else {
      auto idx = static_cast<std::size_t>((x - lo) / width);
      if (idx >= counts.size()) idx = counts.size() - 1;
      ++counts[idx];
    }
  }
  void merge(const DenseHistogram& o) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
    if (o.total != 0) {
      min = total == 0 ? o.min : std::min(min, o.min);
      max = total == 0 ? o.max : std::max(max, o.max);
    }
    sum += o.sum;
    underflow += o.underflow;
    overflow += o.overflow;
    total += o.total;
  }
  double cdf_at(std::size_t i) const {
    if (total == 0) return 0.0;
    std::uint64_t below = underflow;
    for (std::size_t k = 0; k <= i && k < counts.size(); ++k) {
      below += counts[k];
    }
    return static_cast<double>(below) / static_cast<double>(total);
  }
  double quantile(double p) const {
    if (total == 0) return 0.0;
    const double target =
        std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
    double below = static_cast<double>(underflow);
    if (target <= below) return lo;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      const auto mass = static_cast<double>(counts[i]);
      if (below + mass >= target && mass > 0.0) {
        return lo + width * static_cast<double>(i) +
               (target - below) / mass * width;
      }
      below += mass;
    }
    return hi;
  }
  // Percentiles::bounded's answer over these buckets.
  double percentile(double p) const {
    if (total == 0) return 0.0;
    if (p <= 0.0) return min;
    if (p >= 100.0) return max;
    return std::clamp(quantile(p), min, max);
  }
};

constexpr double kProbes[] = {0, 0.1, 1, 5, 25, 50, 75, 95, 99, 99.9, 100};

void expect_dense(const common::Histogram& h, const DenseHistogram& ref) {
  ASSERT_EQ(h.bucket_count(), ref.counts.size());
  EXPECT_EQ(h.total(), ref.total);
  EXPECT_EQ(h.underflow(), ref.underflow);
  EXPECT_EQ(h.overflow(), ref.overflow);
  for (std::size_t i = 0; i < ref.counts.size(); ++i) {
    ASSERT_EQ(h.bucket(i), ref.counts[i]) << "bucket " << i;
    ASSERT_EQ(h.cdf_at(i), ref.cdf_at(i)) << "cdf_at " << i;
  }
  for (const double p : kProbes) {
    EXPECT_EQ(h.quantile(p), ref.quantile(p)) << "p" << p;
  }
}

void expect_dense(const common::Percentiles& p, const DenseHistogram& ref) {
  ASSERT_NE(p.histogram(), nullptr);
  expect_dense(*p.histogram(), ref);
  for (const double q : kProbes) {
    EXPECT_EQ(p.percentile(q), ref.percentile(q)) << "p" << q;
  }
  EXPECT_EQ(p.mean(), ref.total == 0 ? 0.0 : ref.sum / ref.total);
  EXPECT_EQ(p.min(), ref.percentile(0));
  EXPECT_EQ(p.max(), ref.percentile(100));
}

// `n` samples with in-range values in [in_lo, in_hi): clustered around one
// point or scattered, plus about 5% below lo, 5% at or above hi, and the
// range edges themselves.
std::vector<double> histogram_samples(common::Rng& rng, double lo, double hi,
                                      double in_lo, double in_hi,
                                      bool clustered, std::size_t n) {
  const double centre = rng.uniform(in_lo, in_hi);
  const double spread = (in_hi - in_lo) * rng.uniform(0.001, 0.1);
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    double x;
    if (u < 0.05) {
      x = lo - rng.uniform(0.0, hi - lo);
    } else if (u < 0.10) {
      x = hi + rng.uniform(0.0, hi - lo);
    } else if (u < 0.11) {
      x = rng.chance(0.5) ? lo : hi;
    } else if (clustered) {
      x = std::clamp(centre + rng.uniform(-spread, spread), in_lo,
                     std::nextafter(in_hi, in_lo));
    } else {
      x = rng.uniform(in_lo, in_hi);
    }
    out.push_back(x);
  }
  return out;
}

TEST(HistogramProperty, SparseBucketsMatchDenseReference) {
  common::Rng rng = make_rng(31);
  for (int c = 0; c < 200; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const auto buckets = static_cast<std::size_t>(rng.uniform_u64(1, 300));
    const double lo = rng.uniform(-1000.0, 1000.0);
    const double hi = lo + rng.uniform(1.0, 5000.0);
    const double mid = lo + (hi - lo) * rng.uniform(0.2, 0.8);
    const bool clustered = rng.chance(0.5);
    const auto n = static_cast<std::size_t>(rng.uniform_u64(0, 400));

    // One histogram over the whole range.
    common::Percentiles p = common::Percentiles::bounded(lo, hi, buckets);
    DenseHistogram ref(lo, hi, buckets);
    for (double x : histogram_samples(rng, lo, hi, lo, hi, clustered, n)) {
      p.add(x);
      ref.add(x);
    }
    expect_dense(p, ref);

    // Two histograms whose in-range samples sit on either side of `mid`,
    // merged in both orders.
    common::Percentiles below = common::Percentiles::bounded(lo, hi, buckets);
    common::Percentiles above = common::Percentiles::bounded(lo, hi, buckets);
    DenseHistogram ref_below(lo, hi, buckets), ref_above(lo, hi, buckets);
    for (double x : histogram_samples(rng, lo, hi, lo, mid, clustered, n)) {
      below.add(x);
      ref_below.add(x);
    }
    for (double x : histogram_samples(rng, lo, hi, mid, hi, !clustered, n)) {
      above.add(x);
      ref_above.add(x);
    }
    DenseHistogram ref_merged = ref_below;
    ref_merged.merge(ref_above);
    common::Percentiles below_then_above = below;
    below_then_above.merge(above);
    expect_dense(below_then_above, ref_merged);
    ref_merged = ref_above;
    ref_merged.merge(ref_below);
    common::Percentiles above_then_below = above;
    above_then_below.merge(below);
    expect_dense(above_then_below, ref_merged);

    // clear() forgets every sample; re-adds build a new span.
    p.clear();
    DenseHistogram ref_cleared(lo, hi, buckets);
    expect_dense(p, ref_cleared);
    for (double x : histogram_samples(rng, lo, hi, mid, hi, clustered, n)) {
      p.add(x);
      ref_cleared.add(x);
    }
    expect_dense(p, ref_cleared);
  }
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
                       last);
    } else {
      e->state.observe(flow::Direction::kTx, net::TcpFlags{.syn = true}, true,
                       last);
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
                       flags, true, now);
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

// Side storage against a model that keeps each key's counters and QoS
// bucket inline. Ballast entries fill two slab chunks and are then erased in
// random order, so the test keys land on slots spread over both chunks,
// some of whose side arrays exist and some not, and recycle them as they
// churn. After every step each live entry's counters() equals the model's,
// every admit verdict matches, and a new entry (often on a recycled slot)
// reads zero counters and a full bucket.
TEST(SessionTableProperty, SideStorageMatchesReferenceModel) {
  common::Rng rng = make_rng(24);
  flow::SessionTable table{flow::SessionTableConfig{
      .established_ttl = common::seconds(2),
      .embryonic_ttl = common::milliseconds(500),
      .closed_ttl = common::milliseconds(100)}};
  std::vector<flow::SessionKey> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(flow::SessionKey::from_packet(3, random_tuple(rng)));
  }
  struct Model {
    flow::SessionCounters counters;
    flow::QosBucket qos;
  };
  std::map<std::size_t, Model> ref;  // key index → what the table must hold
  std::size_t ballast = 0;           // live ballast entries
  common::TimePoint now = 0;
  const auto add_ballast = [&] {
    std::vector<flow::SessionKey> added;
    for (int i = 0; i < 1024; ++i) {
      added.push_back(flow::SessionKey::from_packet(4, random_tuple(rng)));
      ASSERT_NE(table.find_or_create(added.back(), now), nullptr);
    }
    rng.shuffle(added);
    for (std::size_t i = 0; i < 768; ++i) ASSERT_TRUE(table.erase(added[i]));
    ballast += added.size() - 768;
  };
  add_ballast();
  constexpr std::array<flow::StatsMode, 4> kModes = {
      flow::StatsMode::kNone, flow::StatsMode::kPackets,
      flow::StatsMode::kBytes, flow::StatsMode::kPacketsAndBytes};
  constexpr std::array<std::uint32_t, 4> kRates = {0, 8, 16, 64};
  std::size_t admits = 0;
  std::size_t drops = 0;
  for (int step = 0; step < 6000; ++step) {
    const std::size_t k = rng.uniform_u64(0, keys.size() - 1);
    flow::SessionEntry* e = table.find(keys[k]);
    switch (rng.uniform_u64(0, 9)) {
      case 0: case 1:
        if (e == nullptr) {
          e = table.find_or_create(keys[k], now);
          ASSERT_NE(e, nullptr);
          ref[k] = Model{};
          EXPECT_EQ(table.counters(*e), flow::SessionCounters{})
              << "step " << step;
          if (rng.chance(0.5)) {  // exactly one full burst must pass
            const std::uint32_t kbps = kRates[rng.uniform_u64(1, 3)];
            EXPECT_TRUE(table.qos_admit(*e, kbps, kbps * 1000u, now));
            ref[k].qos.admit(kbps, kbps * 1000u, now);
          }
        }
        break;
      case 2: case 3: case 4:
        if (e != nullptr) {
          const flow::StatsMode mode = kModes[rng.uniform_u64(0, 3)];
          const auto dir = rng.chance(0.5) ? flow::Direction::kTx
                                           : flow::Direction::kRx;
          const std::size_t bytes = rng.uniform_u64(40, 1500);
          e->state.stats_mode = mode;
          table.observe(*e, dir, net::TcpFlags{.ack = true}, true, bytes, now);
          flow::SessionCounters& c = ref[k].counters;
          const bool tx = dir == flow::Direction::kTx;
          if (mode == flow::StatsMode::kPackets ||
              mode == flow::StatsMode::kPacketsAndBytes) {
            ++(tx ? c.pkts_tx : c.pkts_rx);
          }
          if (mode == flow::StatsMode::kBytes ||
              mode == flow::StatsMode::kPacketsAndBytes) {
            (tx ? c.bytes_tx : c.bytes_rx) += bytes;
          }
        }
        break;
      case 5: case 6:
        if (e != nullptr) {  // a train of packets, so buckets run dry
          const std::uint32_t kbps = kRates[rng.uniform_u64(0, 3)];
          for (std::uint64_t n = rng.uniform_u64(1, 8); n > 0; --n) {
            const std::size_t bits = rng.uniform_u64(64, 12000);
            const bool admitted = table.qos_admit(*e, kbps, bits, now);
            EXPECT_EQ(admitted, ref[k].qos.admit(kbps, bits, now))
                << "step " << step;
            ++(admitted ? admits : drops);
          }
        }
        break;
      case 7:
        EXPECT_EQ(table.erase(keys[k]), e != nullptr);
        ref.erase(k);
        break;
      case 8:
        now += static_cast<common::Duration>(
            rng.uniform_u64(0, common::milliseconds(300)));
        table.age_out(now, [&](const flow::SessionKey& key,
                               const flow::SessionEntry& gone) {
          const auto it = std::find(keys.begin(), keys.end(), key);
          if (it == keys.end()) {
            --ballast;
            return;
          }
          const std::size_t idx = static_cast<std::size_t>(it - keys.begin());
          EXPECT_EQ(table.counters(gone), ref.at(idx).counters);
          ref.erase(idx);
        });
        break;
      default:
        if (rng.chance(0.02)) {
          table.clear();
          ref.clear();
          ballast = 0;
          add_ballast();
        } else {
          now += static_cast<common::Duration>(
              rng.uniform_u64(0, common::milliseconds(20)));
        }
        break;
    }
    ASSERT_EQ(table.size(), ref.size() + ballast) << "step " << step;
    for (const auto& [idx, model] : ref) {
      const flow::SessionEntry* live = table.find(keys[idx]);
      ASSERT_NE(live, nullptr) << "step " << step;
      EXPECT_EQ(table.counters(*live), model.counters) << "step " << step;
    }
  }
  EXPECT_GT(admits, 100u);  // both verdicts were exercised
  EXPECT_GT(drops, 100u);
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
