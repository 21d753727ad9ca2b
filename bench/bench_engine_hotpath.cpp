// Engine hot-path microbenchmarks + end-to-end throughput baseline.
//
// Unlike the per-figure benches (which reproduce paper artifacts), this one
// tracks the simulator's OWN performance trajectory: the four hot paths the
// slow-path chain and flow-table bottlenecks stress (§2.2.2) — ACL lookup,
// LPM lookup, session-table ops, event-loop ops — plus an end-to-end
// packets-per-wall-clock-second run on the standard testbed topology.
//
// Output: human-readable tables on stdout AND a machine-readable
// BENCH_engine.json (schema v4, documented in README.md) so future PRs have
// a recorded baseline to beat (tools/nezha_report diffs a fresh run against
// the checked-in copy). Reference implementations of the pre-overhaul
// structures (linear ACL scan, all-33-lengths LPM probe) are kept inline
// here both as the speedup denominator and as a differential sanity check:
// the bench aborts if the indexed structures ever disagree with them.
//
// Additional phases (this PR): a steady-state allocation audit (the
// zero-allocation datapath contract, counted via the nezha_alloc_hook
// operator-new replacement) and a 1024-vswitch Clos macro run exercising
// the dense underlay at fleet scale.
//
// `--smoke` runs only the determinism + allocation gates (Release CI job):
// exits non-zero if the e2e fingerprint drifts, a steady-state packet
// allocates, or the setup phase exceeds its per-connection allocation
// budget; does not rewrite BENCH_engine.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/testbed.h"
#include "src/flow/session_table.h"
#include "src/sim/event_loop.h"
#include "src/tables/acl.h"
#include "src/tables/lpm.h"
#include "src/workload/cps_workload.h"
#include "support/alloc_hook.h"
#include "support/scenarios.h"

using namespace nezha;

namespace {

// Determinism fingerprint of the e2e run under the burst windows of
// support/scenarios.h. Re-baselined (from 4585995/1146438, the exact-timing
// fingerprint the seed engine produced) when burst windows were turned on
// for this scenario: window quantization legitimately shifts event
// interleaving by −0.017% packets / −0.013% connections. Exact timing (all
// windows 0) still reproduces the old fingerprint and stays the unit-test
// default; tests/policy_golden_test.cpp and tests/slo_test.cpp pin both.
constexpr std::uint64_t kGoldenE2ePackets = 4585200;
constexpr std::uint64_t kGoldenE2eConnections = 1146286;
// Setup-phase allocation budget: once slabs, indexes and timer rings are
// warm (first simulated second), opening a connection must be amortized
// allocation-free. What remains under the budget is session-slab growth —
// established entries age on an 8s TTL, so the table is still ramping
// toward equilibrium through the whole 4s run (measured ~0.012/conn; the
// per-closure spill this gate was built to catch costs ~0.5/conn).
constexpr double kSetupAllocsPerConnBudget = 0.02;

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------------ reference ACL
// Faithful copy of the pre-overhaul AclTable: one priority-sorted vector,
// scanned linearly until the first match.
struct ReferenceAcl {
  std::vector<tables::AclRule> rules;
  flow::Verdict default_verdict = flow::Verdict::kAccept;

  void add_rule(tables::AclRule rule) {
    auto pos = std::lower_bound(rules.begin(), rules.end(), rule,
                                [](const tables::AclRule& a,
                                   const tables::AclRule& b) {
                                  return a.priority < b.priority;
                                });
    rules.insert(pos, std::move(rule));
  }
  flow::Verdict lookup(const net::FiveTuple& ft, flow::Direction dir) const {
    for (const auto& rule : rules) {
      if (rule.direction && *rule.direction != dir) continue;
      if (rule.proto && *rule.proto != ft.proto) continue;
      if (!rule.src.contains(ft.src_ip)) continue;
      if (!rule.dst.contains(ft.dst_ip)) continue;
      if (!rule.src_ports.contains(ft.src_port)) continue;
      if (!rule.dst_ports.contains(ft.dst_port)) continue;
      return rule.verdict;
    }
    return default_verdict;
  }
};

// ------------------------------------------------------------ reference LPM
// Faithful copy of the pre-overhaul LpmTable::lookup: probe every length
// from /32 down, including empty ones.
struct ReferenceLpm {
  std::array<std::unordered_map<std::uint32_t, int>, 33> levels;

  void insert(tables::Prefix p, int v) {
    levels[p.length].insert_or_assign(p.network(), v);
  }
  const int* lookup(net::Ipv4Addr ip) const {
    for (int len = 32; len >= 0; --len) {
      const auto& level = levels[static_cast<std::size_t>(len)];
      if (level.empty()) continue;
      const std::uint32_t mask = (len == 0) ? 0u : (~0u << (32 - len));
      auto it = level.find(ip.value() & mask);
      if (it != level.end()) return &it->second;
    }
    return nullptr;
  }
};

net::FiveTuple random_tuple(common::Rng& rng) {
  return net::FiveTuple{
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      static_cast<std::uint16_t>(rng.uniform_u64(0, 65535)),
      rng.chance(0.5) ? net::IpProto::kTcp : net::IpProto::kUdp};
}

// Interleaved timing rounds of an indexed structure against its reference.
// The table and BENCH_engine.json report each side's best round and the
// ratio of the two; the verdict rests on the median of the per-round
// ratios, which one noisy round cannot move (a best-of-3 ratio flipped
// verdicts on an unchanged binary).
struct Rounds {
  static constexpr int kCount = 9;
  double best_indexed = 0;
  double best_reference = 0;
  std::vector<double> ratios;

  void add(double indexed, double reference) {
    best_indexed = std::max(best_indexed, indexed);
    best_reference = std::max(best_reference, reference);
    ratios.push_back(indexed / reference);
  }
  double median_ratio() {
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
  }
};

// Each timed loop is its own never-inlined function starting on a cache
// line, so code added elsewhere in this file cannot shift the loop across
// a line boundary and change its rate.
template <typename Acl>
[[gnu::noinline, gnu::aligned(64)]] double time_acl(
    const Acl& acl, const std::vector<net::FiveTuple>& queries,
    const std::vector<flow::Direction>& dirs, std::uint64_t& sum) {
  std::uint64_t s = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    s += static_cast<std::uint64_t>(acl.lookup(queries[i], dirs[i]));
  }
  const double rate = static_cast<double>(queries.size()) / wall_seconds(t0);
  sum = s;
  return rate;
}

template <typename Lpm>
[[gnu::noinline, gnu::aligned(64)]] double time_lpm(
    const Lpm& lpm, const std::vector<net::Ipv4Addr>& queries,
    std::uint64_t& sum) {
  std::uint64_t s = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto ip : queries) {
    const int* v = lpm.lookup(ip);
    s += v ? static_cast<std::uint64_t>(*v) : 0xdead;
  }
  const double rate = static_cast<double>(queries.size()) / wall_seconds(t0);
  sum = s;
  return rate;
}

struct AclResult {
  double indexed_per_sec = 0;
  double reference_per_sec = 0;
  double median_ratio = 0;  // the verdict's input (see Rounds)
};

AclResult bench_acl(std::size_t n_rules, int n_lookups) {
  common::Rng rng(0xac1);
  tables::AclTable acl(flow::Verdict::kAccept);
  ReferenceAcl ref;
  for (std::size_t i = 0; i < n_rules; ++i) {
    const tables::AclRule r = support::random_acl_rule(rng);
    acl.add_rule(r);
    ref.add_rule(r);
  }
  std::vector<net::FiveTuple> queries;
  std::vector<flow::Direction> dirs;
  queries.reserve(static_cast<std::size_t>(n_lookups));
  for (int i = 0; i < n_lookups; ++i) {
    queries.push_back(random_tuple(rng));
    dirs.push_back(rng.chance(0.5) ? flow::Direction::kTx
                                   : flow::Direction::kRx);
  }

  AclResult out;
  std::uint64_t sum_idx = 0, sum_ref = 0;
  // Interleaved rounds (see Rounds): a single back-to-back measurement hands
  // whichever loop runs second warmed caches and predictors.
  Rounds rounds;
  for (int round = 0; round < Rounds::kCount; ++round) {
    const double indexed = time_acl(acl, queries, dirs, sum_idx);
    rounds.add(indexed, time_acl(ref, queries, dirs, sum_ref));
  }
  out.indexed_per_sec = rounds.best_indexed;
  out.reference_per_sec = rounds.best_reference;
  out.median_ratio = rounds.median_ratio();

  if (sum_idx != sum_ref) {
    std::fprintf(stderr, "FATAL: ACL differential mismatch (%llu vs %llu)\n",
                 static_cast<unsigned long long>(sum_idx),
                 static_cast<unsigned long long>(sum_ref));
    std::abort();
  }
  return out;
}

struct LpmResult {
  double indexed_per_sec = 0;
  double reference_per_sec = 0;
  double median_ratio = 0;  // the verdict's input (see Rounds)
};

LpmResult bench_lpm(std::size_t n_prefixes, int n_lookups) {
  common::Rng rng(0x17a);
  tables::LpmTable<int> lpm;
  ReferenceLpm ref;
  // Routing tables populate a handful of lengths, not all 33.
  const std::uint8_t lengths[] = {10, 16, 20, 24, 32};
  for (std::size_t i = 0; i < n_prefixes; ++i) {
    tables::Prefix p{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                     lengths[rng.uniform_u64(0, 4)]};
    lpm.insert(p, static_cast<int>(i));
    ref.insert(p, static_cast<int>(i));
  }
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(static_cast<std::size_t>(n_lookups));
  for (int i = 0; i < n_lookups; ++i) {
    queries.emplace_back(static_cast<std::uint32_t>(rng.next()));
  }

  LpmResult out;
  std::uint64_t sum_idx = 0, sum_ref = 0;
  // Interleaved rounds (see bench_acl).
  Rounds rounds;
  for (int round = 0; round < Rounds::kCount; ++round) {
    const double indexed = time_lpm(lpm, queries, sum_idx);
    rounds.add(indexed, time_lpm(ref, queries, sum_ref));
  }
  out.indexed_per_sec = rounds.best_indexed;
  out.reference_per_sec = rounds.best_reference;
  out.median_ratio = rounds.median_ratio();

  if (sum_idx != sum_ref) {
    std::fprintf(stderr, "FATAL: LPM differential mismatch\n");
    std::abort();
  }
  return out;
}

// Session table: churn (find_or_create + find + erase) and the aging sweep
// with a large live table — the two patterns the flat layout and the TTL
// wheel target.
struct SessionResult {
  double churn_ops_per_sec = 0;
  double age_sweeps_per_sec = 0;
};

SessionResult bench_session_table(std::size_t n_keys) {
  common::Rng rng(0x5e55);
  std::vector<flow::SessionKey> keys;
  keys.reserve(n_keys);
  for (std::size_t i = 0; i < n_keys; ++i) {
    keys.push_back(flow::SessionKey::from_packet(
        static_cast<std::uint32_t>(rng.uniform_u64(1, 8)), random_tuple(rng)));
  }

  SessionResult out;
  flow::SessionTable table{flow::SessionTableConfig{}};
  std::uint64_t ops = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < 3; ++round) {
    for (const auto& k : keys) {
      auto* e = table.find_or_create(k, 0);
      e->state.last_active = common::seconds(1);
      ++ops;
    }
    for (const auto& k : keys) {
      ops += table.find(k) != nullptr;
    }
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      table.erase(keys[i]);
      ++ops;
    }
  }
  out.churn_ops_per_sec = static_cast<double>(ops) / wall_seconds(t0);

  // Aging: a full table where nothing is expired — the common steady-state
  // sweep. The pre-overhaul table rescans every entry per sweep.
  flow::SessionTable aged{flow::SessionTableConfig{}};
  for (const auto& k : keys) {
    auto* e = aged.find_or_create(k, 0);
    e->state.last_active = 0;
  }
  constexpr int kSweeps = 200;
  t0 = std::chrono::steady_clock::now();
  std::size_t removed = 0;
  for (int s = 0; s < kSweeps; ++s) {
    removed += aged.age_out(common::seconds(1));  // established TTL is 8s
  }
  out.age_sweeps_per_sec = kSweeps / wall_seconds(t0);
  if (removed != 0) {
    std::fprintf(stderr, "FATAL: aging bench evicted live entries\n");
    std::abort();
  }
  return out;
}

double bench_event_loop(int n_events) {
  common::Rng rng(0xeeee);
  sim::EventLoop loop;
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(n_events));
  std::uint64_t fired = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n_events; ++i) {
    ids.push_back(loop.schedule_at(
        static_cast<common::TimePoint>(rng.uniform_u64(0, 10'000'000)),
        [&fired]() { ++fired; }));
  }
  int cancels = 0;
  for (int i = 0; i < n_events; ++i) {
    if (rng.chance(0.3)) {
      loop.cancel(ids[static_cast<std::size_t>(i)]);
      ++cancels;
    }
  }
  loop.run();
  const double elapsed = wall_seconds(t0);
  const double total_ops =
      static_cast<double>(n_events) + cancels + static_cast<double>(fired);
  return total_ops / elapsed;
}

// End-to-end: the standard testbed topology under a connection-heavy
// workload with production-sized tenant ACLs — every new flow runs the
// slow-path chain, every packet touches the session table, every hop is an
// event. Reported as simulated packets delivered per wall-clock second.
struct E2eResult {
  double pkts_per_wall_sec = 0;
  double conns_per_wall_sec = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completed_conns = 0;
  /// Setup-phase allocation audit: heap allocations per NEW connection over
  /// the post-warmup window (the connection-setup analogue of the
  /// steady-state allocs-per-packet gate).
  double setup_allocs_per_conn = 0;
  std::uint64_t setup_window_conns = 0;
  std::uint64_t setup_window_allocs = 0;
};

E2eResult bench_e2e() {
  support::CpsBed s = support::e2e_bed(support::e2e_config(/*bursts=*/true),
                                       /*bursts=*/true);
  core::Testbed& bed = *s.bed;
  s.start();
  const auto t0 = std::chrono::steady_clock::now();
  // Warmup second: slabs, probe indexes and timer rings reach their
  // steady sizes (splitting run_for never changes event order). Everything
  // after it is the setup-phase allocation window: the scenario opens
  // ~290K fresh connections per simulated second, so per-connection
  // allocation creep shows up here at full magnification.
  bed.run_for(common::seconds(1));
  const std::uint64_t warm_allocs = support::alloc_counts().news;
  const std::uint64_t warm_conns = s.completed();
  bed.run_for(common::seconds(3));
  const double elapsed = wall_seconds(t0);
  s.stop();

  E2eResult out;
  out.delivered = bed.network().delivered();
  out.completed_conns = s.completed();
  out.pkts_per_wall_sec = static_cast<double>(out.delivered) / elapsed;
  out.conns_per_wall_sec = static_cast<double>(out.completed_conns) / elapsed;
  out.setup_window_allocs = support::alloc_counts().news - warm_allocs;
  out.setup_window_conns = out.completed_conns - warm_conns;
  out.setup_allocs_per_conn =
      out.setup_window_conns > 0
          ? static_cast<double>(out.setup_window_allocs) /
                static_cast<double>(out.setup_window_conns)
          : -1.0;
  return out;
}

// Steady-state allocation audit: a BE↔FE offloaded flow pumped through the
// full client → FE → BE datapath (and the reverse BE → FE → client path)
// with the operator-new hook counting. After warmup (slabs sized, session
// and cache entries created, placements learned) the datapath contract is
// ZERO heap allocations per packet.
struct AllocResult {
  double allocs_per_packet = 0;
  std::uint64_t window_packets = 0;
  std::uint64_t window_allocs = 0;
  /// Steady-state datapath throughput over a longer timed pump window (0 in
  /// smoke mode, which only runs the allocation gate).
  double steady_pkts_per_sec = 0;
};

AllocResult bench_steady_alloc(bool timed) {
  core::Testbed bed(support::tcp_pair_config());
  if (!support::add_offloaded_tcp_pair(bed)) {
    std::fprintf(stderr, "FATAL: alloc bench offload failed\n");
    std::abort();
  }
  // Warmup: grow every slab and table once.
  support::pump_tcp_pair(bed, /*sport=*/40000, /*iterations=*/256);

  const std::uint64_t delivered_before = bed.network().delivered();
  const std::uint64_t allocs_before = support::alloc_counts().news;
  support::pump_tcp_pair(bed, /*sport=*/40000, /*iterations=*/4096);
  const std::uint64_t window_allocs =
      support::alloc_counts().news - allocs_before;
  const std::uint64_t window_packets =
      bed.network().delivered() - delivered_before;

  AllocResult out;
  out.window_packets = window_packets;
  out.window_allocs = window_allocs;
  out.allocs_per_packet = window_packets > 0
                              ? static_cast<double>(window_allocs) /
                                    static_cast<double>(window_packets)
                              : -1.0;
  if (timed) {
    // Steady-state datapath throughput: the number the zero-allocation work
    // targets directly. The end-to-end run below is connection-setup bound
    // (4 packets per connection), which dilutes per-packet datapath gains.
    const std::uint64_t timed_before = bed.network().delivered();
    const auto t0 = std::chrono::steady_clock::now();
    support::pump_tcp_pair(bed, /*sport=*/40000, /*iterations=*/100000);
    const double elapsed = wall_seconds(t0);
    out.steady_pkts_per_sec =
        static_cast<double>(bed.network().delivered() - timed_before) /
        elapsed;
  }
  return out;
}

// 1024-vswitch Clos macro run: the dense underlay (vector-indexed nodes and
// ports, precomputed fabric-link indices, pooled in-flight records) carrying
// BE↔FE offload traffic across spines at fleet scale.
struct ClosResult {
  std::size_t num_vswitches = 0;
  double pkts_per_wall_sec = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completed_conns = 0;
};

ClosResult bench_clos(std::size_t num_vswitches, std::size_t shards,
                      int threads) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(num_vswitches);
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  // Same burst configuration as the e2e run: the macro row should measure
  // the fleet on the production fast path, not the exact-timing debug path.
  support::use_burst_windows(cfg);
  // --shards/--threads: partition the fleet onto the sharded engine and run
  // it, setup included, on worker threads.
  cfg.shards = shards;
  cfg.threads = threads;
  core::Testbed bed(cfg);

  constexpr std::uint32_t kVpc = 11;
  constexpr std::size_t kPairs = 16;
  std::vector<std::unique_ptr<workload::CpsWorkload>> clients;
  for (std::size_t p = 0; p < kPairs; ++p) {
    // Spread pairs across the whole fleet, client and server on different
    // racks so every flow crosses the spine layer.
    const std::size_t server_switch = p * (num_vswitches / kPairs);
    const std::size_t client_switch =
        server_switch + num_vswitches / (2 * kPairs);
    vswitch::VnicConfig server;
    server.id = static_cast<tables::VnicId>(100 + p);
    server.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(p), 100)};
    bed.add_vnic(server_switch, server);
    vswitch::VnicConfig client;
    client.id = static_cast<tables::VnicId>(1 + p);
    client.addr = tables::OverlayAddr{
        kVpc, net::Ipv4Addr(10, 0, static_cast<std::uint8_t>(p), 1)};
    bed.add_vnic(client_switch, client);
    if (!bed.controller().trigger_offload(server.id).ok()) {
      std::fprintf(stderr, "FATAL: clos bench offload failed\n");
      std::abort();
    }
    workload::CpsWorkloadConfig w;
    // Sized to cover the burst-quantized cross-spine RTT (every fabric hop
    // rounds up to the RX window, so a Clos traversal is ~1ms round-trip):
    // a closed loop needs enough in-flight connections to pipeline that
    // latency away, or the row measures window skew instead of capacity.
    w.concurrency = 256;
    w.seed = 900 + static_cast<std::uint64_t>(p);
    w.timer_window = support::kTimerWindow;
    clients.push_back(std::make_unique<workload::CpsWorkload>(
        bed, client_switch, client.id, server_switch, server.id, w));
  }
  bed.run_for(common::seconds(4));  // complete every offload workflow
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();

  const std::uint64_t delivered_before = bed.net_totals().delivered;
  for (auto& c : clients) c->start();
  const auto t0 = std::chrono::steady_clock::now();
  bed.run_for(common::seconds(1));
  const double elapsed = wall_seconds(t0);
  for (auto& c : clients) c->stop();

  ClosResult out;
  out.num_vswitches = num_vswitches;
  out.delivered = bed.net_totals().delivered - delivered_before;
  for (auto& c : clients) out.completed_conns += c->completed();
  out.pkts_per_wall_sec = static_cast<double>(out.delivered) / elapsed;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::has_flag(argc, argv, "--smoke");
  // Sharded-engine knobs for the Clos macro row (README: BENCH schema v4).
  // The e2e determinism/allocation gates always run on the classic 1-shard
  // path — they pin the golden fingerprints, which are per shard_count.
  const std::size_t shards = static_cast<std::size_t>(
      std::max(1L, benchutil::int_flag(argc, argv, "--shards", 1)));
  const int threads = static_cast<int>(
      std::max(1L, benchutil::int_flag(argc, argv, "--threads", 1)));

  benchutil::banner(
      "Engine hot paths — simulator performance trajectory",
      smoke ? "smoke mode: determinism fingerprint + zero-allocation gates"
            : "slab event loop, flat session table, indexed ACL/LPM, "
              "zero-allocation datapath, 1024-vswitch Clos underlay");

  // The three CI gates, run in both modes.
  const E2eResult e2e = bench_e2e();
  const AllocResult alloc = bench_steady_alloc(/*timed=*/!smoke);

  std::printf("\n  Setup-phase e2e run: %llu simulated packets, "
              "%s pkts/sec / %s conns/sec wall-clock (%llu connections)\n",
              static_cast<unsigned long long>(e2e.delivered),
              benchutil::fmt_si(e2e.pkts_per_wall_sec).c_str(),
              benchutil::fmt_si(e2e.conns_per_wall_sec).c_str(),
              static_cast<unsigned long long>(e2e.completed_conns));
  std::printf("  Setup-phase allocations: %llu over %llu new connections "
              "(%.5f/connection)\n",
              static_cast<unsigned long long>(e2e.setup_window_allocs),
              static_cast<unsigned long long>(e2e.setup_window_conns),
              e2e.setup_allocs_per_conn);
  std::printf("  Steady-state allocations: %llu over %llu packets "
              "(%.4f/packet)\n",
              static_cast<unsigned long long>(alloc.window_allocs),
              static_cast<unsigned long long>(alloc.window_packets),
              alloc.allocs_per_packet);

  const bool fingerprint_ok = e2e.delivered == kGoldenE2ePackets &&
                              e2e.completed_conns == kGoldenE2eConnections;
  const bool allocs_ok = alloc.window_packets > 0 && alloc.window_allocs == 0;
  const bool setup_allocs_ok =
      e2e.setup_window_conns > 0 &&
      e2e.setup_allocs_per_conn <= kSetupAllocsPerConnBudget;
  benchutil::verdict(fingerprint_ok,
                     "determinism fingerprint 4585200/1146286 unchanged");
  benchutil::verdict(allocs_ok, "0 heap allocations per steady-state packet");
  benchutil::verdict(setup_allocs_ok,
                     "setup phase <= 0.02 heap allocations per connection");
  const bool gates_ok = fingerprint_ok && allocs_ok && setup_allocs_ok;
  if (smoke) return gates_ok ? 0 : 1;

  const AclResult acl = bench_acl(/*n_rules=*/1000, /*n_lookups=*/100000);
  const LpmResult lpm = bench_lpm(/*n_prefixes=*/20000, /*n_lookups=*/500000);
  const SessionResult sess = bench_session_table(/*n_keys=*/100000);
  const double loop_ops = bench_event_loop(/*n_events=*/500000);
  const ClosResult clos = bench_clos(/*num_vswitches=*/1024, shards, threads);

  const double acl_speedup = acl.indexed_per_sec / acl.reference_per_sec;
  const double lpm_speedup = lpm.indexed_per_sec / lpm.reference_per_sec;

  benchutil::Table t({"hot path", "ops/sec", "reference", "speedup"});
  t.add_row({"ACL lookup (1k rules)", benchutil::fmt_si(acl.indexed_per_sec),
             benchutil::fmt_si(acl.reference_per_sec),
             benchutil::fmt(acl_speedup, 2) + "x"});
  t.add_row({"LPM lookup (20k pfx)", benchutil::fmt_si(lpm.indexed_per_sec),
             benchutil::fmt_si(lpm.reference_per_sec),
             benchutil::fmt(lpm_speedup, 2) + "x"});
  t.add_row({"session churn", benchutil::fmt_si(sess.churn_ops_per_sec), "-",
             "-"});
  t.add_row({"age sweep (100k live)",
             benchutil::fmt_si(sess.age_sweeps_per_sec) + "/s", "-", "-"});
  t.add_row({"event loop", benchutil::fmt_si(loop_ops), "-", "-"});
  t.print();

  std::printf("\n  Clos macro run (%zu vswitches, %zu shard(s) x %d "
              "thread(s)): %llu packets, "
              "%s pkts/sec wall-clock (%llu connections)\n",
              clos.num_vswitches, shards, threads,
              static_cast<unsigned long long>(clos.delivered),
              benchutil::fmt_si(clos.pkts_per_wall_sec).c_str(),
              static_cast<unsigned long long>(clos.completed_conns));
  std::printf("\n  Steady-phase datapath: %s pkts/sec\n",
              benchutil::fmt_si(alloc.steady_pkts_per_sec).c_str());
  std::printf("  note: the end-to-end scenario is connection-setup bound "
              "(4 pkts/conn), so this\n"
              "  row tracks the setup fast path (burst windows, timer rings, "
              "setup cache);\n"
              "  per-packet datapath gains land in the steady-phase number "
              "(README: re-baselining).\n");
  benchutil::verdict(lpm.median_ratio >= 1.0,
                     "LPM probe list >= the naive 33-length reference "
                     "(median round " + benchutil::fmt(lpm.median_ratio, 2) +
                         "x)");
  benchutil::verdict(acl.median_ratio >= 5.0,
                     "ACL lookup >= 5x the linear scan at 1k rules "
                     "(median round " + benchutil::fmt(acl.median_ratio, 2) +
                         "x)");

  const auto us = [](common::Duration d) {
    return static_cast<int>(d / common::kMicrosecond);
  };
  std::FILE* json = std::fopen("BENCH_engine.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_engine.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"schema\": \"nezha-bench-engine-v4\",\n"
               "  \"sharding\": {\"shards\": %zu, \"threads\": %d},\n"
               "  \"structures\": {\n",
               shards, threads);
  std::fprintf(json,
               "    \"acl_lookup\": {\"ops_per_sec\": %.0f, "
               "\"reference_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
               "    \"lpm_lookup\": {\"ops_per_sec\": %.0f, "
               "\"reference_ops_per_sec\": %.0f, \"speedup\": %.3f},\n"
               "    \"session_table\": {\"churn_ops_per_sec\": %.0f, "
               "\"age_sweeps_per_sec\": %.1f},\n"
               "    \"event_loop\": {\"ops_per_sec\": %.0f}\n"
               "  },\n"
               "  \"datapath\": {\n"
               "    \"allocs_per_packet\": %.4f,\n"
               "    \"steady_window_packets\": %llu,\n"
               "    \"steady_window_allocs\": %llu,\n"
               "    \"steady_pkts_per_sec\": %.0f\n"
               "  },\n"
               "  \"end_to_end\": {\n"
               "    \"burst_config\": {\"rx_burst_window_us\": %d, "
               "\"cpu_burst_window_us\": %d, \"workload_timer_window_us\": "
               "%d, \"aging_period_ms\": %d},\n"
               "    \"setup_phase\": {\n"
               "      \"pkts_per_sec_wallclock\": %.0f,\n"
               "      \"conns_per_sec_wallclock\": %.0f,\n"
               "      \"simulated_packets\": %llu,\n"
               "      \"completed_connections\": %llu,\n"
               "      \"allocs_per_new_connection\": %.5f,\n"
               "      \"setup_window_connections\": %llu,\n"
               "      \"setup_window_allocs\": %llu\n"
               "    },\n"
               "    \"steady_phase\": {\n"
               "      \"pkts_per_sec_wallclock\": %.0f,\n"
               "      \"allocs_per_packet\": %.4f\n"
               "    }\n"
               "  },\n"
               "  \"clos_macro\": {\n"
               "    \"num_vswitches\": %zu,\n"
               "    \"pkts_per_sec_wallclock\": %.0f,\n"
               "    \"simulated_packets\": %llu,\n"
               "    \"completed_connections\": %llu\n"
               "  }\n"
               "}\n",
               acl.indexed_per_sec, acl.reference_per_sec, acl_speedup,
               lpm.indexed_per_sec, lpm.reference_per_sec, lpm_speedup,
               sess.churn_ops_per_sec, sess.age_sweeps_per_sec, loop_ops,
               alloc.allocs_per_packet,
               static_cast<unsigned long long>(alloc.window_packets),
               static_cast<unsigned long long>(alloc.window_allocs),
               alloc.steady_pkts_per_sec, us(support::kNetBurstWindow),
               us(support::kCpuBurstWindow), us(support::kTimerWindow),
               static_cast<int>(support::kBurstAgingPeriod /
                                common::kMillisecond),
               e2e.pkts_per_wall_sec,
               e2e.conns_per_wall_sec,
               static_cast<unsigned long long>(e2e.delivered),
               static_cast<unsigned long long>(e2e.completed_conns),
               e2e.setup_allocs_per_conn,
               static_cast<unsigned long long>(e2e.setup_window_conns),
               static_cast<unsigned long long>(e2e.setup_window_allocs),
               alloc.steady_pkts_per_sec, alloc.allocs_per_packet,
               clos.num_vswitches, clos.pkts_per_wall_sec,
               static_cast<unsigned long long>(clos.delivered),
               static_cast<unsigned long long>(clos.completed_conns));
  std::fclose(json);
  std::printf("\n  Wrote BENCH_engine.json\n");
  return gates_ok ? 0 : 1;
}
