// Policy bench matrix (DESIGN.md §14): the three FE-selection policies on
// the two scenarios where strategy, not mechanism, decides the outcome.
//
//   noisy_neighbor — an offloaded server whose 4-FE pool includes one host
//     saturated by a co-located tenant. Static hashing keeps sending a
//     quarter of the flows into the hot FE's queue; the load-aware policy
//     reads the published weight book and routes around it. Reports CPS
//     and per-hop-class p99 (be_rx = offloaded detour, local_rx = plain
//     local delivery) plus delivered fraction, per policy.
//
//   failover_tight_pool — an FE crash in a cluster with zero idle hosts.
//     The paper's min-4 replacement cannot find a home, so static (and
//     load-aware) run on at 3 FEs — overloaded — while push-aside evicts a
//     spare FE from an oversized neighbor pool and restores the fourth.
//     Reports windowed loss around the crash and whether the pool healed.
//
// Output: human tables + BENCH_policy.json (schema in README.md), shard-
// compatible via --shards/--threads; --smoke shrinks the measure windows.
// Exit code 1 when no policy beats static on p99 or failover loss — the
// matrix's reason to exist.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/policy/fe_policy.h"
#include "src/workload/cps_workload.h"

using namespace nezha;

namespace {

constexpr std::uint32_t kVpc = 7;

using policy::PolicyKind;

constexpr PolicyKind kPolicies[3] = {PolicyKind::kStaticHash,
                                     PolicyKind::kLoadAwareWeighted,
                                     PolicyKind::kPushAsideDisplacement};

struct MatrixFlags {
  std::size_t shards = 1;
  int threads = 1;
  bool smoke = false;
};

/// Single-core, low-clock vSwitch CPUs so a handful of pumped UDP flows
/// makes a host *genuinely* busy — the controller's utilization samples
/// (not a test seam) drive the idle filter, the weight book and the
/// displacement victim choice, exactly as in a full-size fleet.
core::TestbedConfig scenario_config(PolicyKind kind, const MatrixFlags& fl) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(
      16, /*hosts_per_leaf=*/4, /*num_spines=*/4, /*oversubscription=*/2.0);
  cfg.vswitch.cpu.cores = 1;
  cfg.vswitch.cpu.hz_per_core = 2e7;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.controller.fe_policy = kind;
  cfg.shards = fl.shards;
  cfg.threads = 1;  // both scenarios churn the control plane mid-run
  return cfg;
}

net::Ipv4Addr add_vnic(core::Testbed& bed, std::size_t node,
                       tables::VnicId id, std::uint8_t subnet,
                       std::uint8_t host) {
  vswitch::VnicConfig v;
  v.id = id;
  v.addr = tables::OverlayAddr{kVpc, net::Ipv4Addr(10, 0, subnet, host)};
  bed.add_vnic(node, v);
  return v.addr.ip;
}

/// Pumps `flows` UDP flows from a vNIC every `period`, on the client's
/// shard loop. Returns the sent counter (attempted from_vm calls).
std::shared_ptr<std::uint64_t> pump(core::Testbed& bed, std::size_t node,
                                    tables::VnicId vnic, net::Ipv4Addr src,
                                    net::Ipv4Addr dst, int flows,
                                    std::uint16_t base_port,
                                    common::Duration period,
                                    bool stamp = false) {
  auto sent = std::make_shared<std::uint64_t>(0);
  sim::EventLoop& loop = bed.loop_of(node);
  loop.schedule_periodic(period, [&bed, &loop, node, vnic, src, dst, flows,
                                  base_port, stamp, sent]() {
    for (int f = 0; f < flows; ++f) {
      const net::FiveTuple ft{src, dst,
                              static_cast<std::uint16_t>(base_port + f), 80,
                              net::IpProto::kUdp};
      net::Packet pkt = net::make_udp_packet(ft, 200, kVpc);
      if (stamp) pkt.created_at = loop.now();
      bed.vswitch(node).from_vm(vnic, std::move(pkt));
      ++*sent;
    }
  });
  return sent;
}

// ------------------------------------------------------- noisy neighbor

struct NoisyResult {
  double cps = 0;
  double p99_be_rx_us = 0;
  double avg_be_rx_us = 0;
  double p99_local_rx_us = 0;
  double delivered_fraction = 0;
  std::uint64_t fingerprint = 0;
};

NoisyResult run_noisy_neighbor(PolicyKind kind, const MatrixFlags& fl) {
  core::Testbed bed(scenario_config(kind, fl));
  const common::Duration measure =
      fl.smoke ? common::milliseconds(500) : common::seconds(2);

  // CPS server A on node 0 → FEs {1,2,3,4} (same-rack first). The latency
  // probes get their own offloaded target: vnic 110 homed on node 2 — a
  // rack-mate of the hot host, so its pool also picks up node 1.
  add_vnic(bed, 0, 100, 0, 100);
  const net::Ipv4Addr det_ip = add_vnic(bed, 2, 110, 0, 110);
  // Local-path server (never offloaded) for the local_rx hop class.
  const net::Ipv4Addr local_ip = add_vnic(bed, 6, 300, 0, 30);
  const net::Ipv4Addr probe_ip = add_vnic(bed, 12, 1, 1, 1);
  const net::Ipv4Addr local_probe_ip = add_vnic(bed, 14, 301, 1, 2);
  // Noisy co-tenant: local server on FE host 1, client on node 5 pumping
  // at its CPU capacity → node 1 saturates (the CPU model sheds excess).
  const net::Ipv4Addr noisy_ip = add_vnic(bed, 1, 401, 2, 1);
  const net::Ipv4Addr noisy_client_ip = add_vnic(bed, 5, 400, 2, 2);
  add_vnic(bed, 13, 2, 1, 3);  // CPS client

  if (!bed.controller().trigger_offload(100, 4).ok() ||
      !bed.controller().trigger_offload(110, 4).ok()) {
    std::fprintf(stderr, "noisy_neighbor: offload failed\n");
    return {};
  }
  {
    const auto pool = bed.controller().fe_nodes_of(110);
    if (std::find(pool.begin(), pool.end(), sim::NodeId{1}) == pool.end()) {
      std::fprintf(stderr,
                   "noisy_neighbor: probe pool misses the hot host — "
                   "placement drifted, scenario needs retuning\n");
    }
  }
  bed.run_for(common::seconds(2));

  common::Percentiles be_lat = common::Percentiles::bounded(0.0, 20000.0, 2000);
  common::Percentiles local_lat =
      common::Percentiles::bounded(0.0, 20000.0, 2000);
  std::uint64_t be_delivered = 0;
  sim::EventLoop& det_loop = bed.loop_of(2);
  bed.vswitch(2).set_vm_delivery(
      110, [&](tables::VnicId, const net::Packet& p) {
        if (p.created_at == 0) return;
        ++be_delivered;
        be_lat.add(common::to_micros(det_loop.now() - p.created_at));
      });
  sim::EventLoop& local_loop = bed.loop_of(6);
  bed.vswitch(6).set_vm_delivery(
      300, [&](tables::VnicId, const net::Packet& p) {
        if (p.created_at == 0) return;
        local_lat.add(common::to_micros(local_loop.now() - p.created_at));
      });

  // Noise first, so the weight snapshot sees the hot host.
  pump(bed, 5, 400, noisy_client_ip, noisy_ip, 32, 40000,
       common::milliseconds(1));
  bed.run_for(common::milliseconds(400));
  bed.controller().refresh_fleet_sample();
  bed.run_for(common::milliseconds(400));
  bed.controller().refresh_fleet_sample();
  bed.controller().publish_fe_weights();
  bed.run_for(common::milliseconds(100));

  // Probes: 32 flows through the offloaded detour, 16 through the local
  // path; modest rates so the probes themselves never load the FEs.
  auto be_sent = pump(bed, 12, 1, probe_ip, det_ip, 32, 30000,
                      common::milliseconds(10), /*stamp=*/true);
  pump(bed, 14, 301, local_probe_ip, local_ip, 16, 31000,
       common::milliseconds(10), /*stamp=*/true);

  workload::CpsWorkloadConfig w;
  w.attempts_per_sec = fl.smoke ? 1000.0 : 2000.0;
  w.seed = 42;
  workload::CpsWorkload cps(bed, 13, 2, 0, 100, w);

  bed.run_for(common::milliseconds(200));
  be_lat.clear();
  local_lat.clear();
  be_delivered = 0;
  *be_sent = 0;

  cps.start();
  bed.run_for(measure);
  cps.stop();

  NoisyResult r;
  r.cps = static_cast<double>(cps.completed()) / common::to_seconds(measure);
  r.p99_be_rx_us = be_lat.percentile(99);
  r.avg_be_rx_us = be_lat.mean();
  r.p99_local_rx_us = local_lat.percentile(99);
  r.delivered_fraction =
      *be_sent == 0 ? 0
                    : static_cast<double>(be_delivered) /
                          static_cast<double>(*be_sent);
  r.fingerprint = bed.net_totals().delivered ^ (cps.completed() << 32);
  return r;
}

// -------------------------------------------------- tight-pool failover

struct FailoverResult {
  double pre_loss = 0;        // baseline loss fraction before the crash
  double post_loss = 0;       // loss fraction over the post-crash windows
  double peak_window_loss = 0;
  std::size_t pool_final = 0;
  bool pool_restored = false;
  std::uint64_t displacements = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t fingerprint = 0;
};

FailoverResult run_tight_pool_failover(PolicyKind kind,
                                       const MatrixFlags& fl) {
  core::TestbedConfig cfg = scenario_config(kind, fl);
  // No FPGA fast path in this scenario: FE forwarding runs at full
  // software cost, so a 4-FE pool sits just under capacity and a 3-FE
  // pool genuinely sheds — the pool size, not the mechanism, is the
  // bottleneck under test.
  cfg.vswitch.cost.fe_cache_hit_accel_factor = 1.0;
  // Tighter busy threshold: the donor FE hosts' load is a static hash of
  // ~40 surviving flows over 5 hosts, so the lightest donor sits near
  // 0.35 — busy in this fleet's terms, and the operator knob is exactly
  // how that judgment is expressed. Keeps every host non-idle at crash
  // time without over-driving the donors.
  cfg.controller.scale_threshold = 0.25;
  core::Testbed bed(cfg);

  // Donor pool first (all hosts idle): B on node 0 → FEs {1..5}, one FE
  // above the minimum of 4 — exactly one spare to push aside.
  const net::Ipv4Addr b_ip = add_vnic(bed, 0, 200, 0, 200);
  if (!bed.controller().trigger_offload(200, 5).ok()) {
    std::fprintf(stderr, "failover: donor offload failed\n");
    return {};
  }
  bed.run_for(common::seconds(2));

  // The donor FE hosts' load is B's *own* FE traffic (clients on 6 and 7,
  // home deliveries keep node 0 warm too): busy enough to fail the idle
  // filter, yet evicting one donor FE re-hashes B's flows to the other
  // four and frees that host's capacity for real. Co-located noise would
  // stay after the eviction and strand the displaced FE on a hot host.
  for (std::size_t n = 6; n <= 7; ++n) {
    const auto cli = add_vnic(bed, n, static_cast<tables::VnicId>(210 + n), 3,
                              static_cast<std::uint8_t>(n));
    pump(bed, n, static_cast<tables::VnicId>(210 + n), cli, b_ip, 64,
         static_cast<std::uint16_t>(40000 + n * 64), common::milliseconds(1));
  }
  bed.controller().refresh_fleet_sample();  // checkpoint: loaded window only
  bed.run_for(common::milliseconds(400));
  bed.controller().refresh_fleet_sample();

  // Now the busy filter steers A's pool into rack 2: FEs {9,10,11,12}.
  const net::Ipv4Addr a_ip = add_vnic(bed, 8, 100, 0, 100);
  if (!bed.controller().trigger_offload(100, 4).ok()) {
    std::fprintf(stderr, "failover: victim offload failed\n");
    return {};
  }
  bed.run_for(common::seconds(2));

  std::uint64_t delivered = 0;
  bed.vswitch(8).set_vm_delivery(
      100, [&delivered](tables::VnicId, const net::Packet&) { ++delivered; });

  // Three saturated clients over four FEs ≈ 0.75 utilization per FE host:
  // healthy with 4 FEs, overloaded at 3. The clients also keep their own
  // hosts (13,14,15) busy, so the min-FE replacement finds nothing idle.
  std::vector<std::shared_ptr<std::uint64_t>> senders;
  for (int c = 0; c < 3; ++c) {
    const auto cli = add_vnic(bed, 13 + static_cast<std::size_t>(c),
                              static_cast<tables::VnicId>(10 + c), 4,
                              static_cast<std::uint8_t>(c + 1));
    senders.push_back(pump(bed, 13 + static_cast<std::size_t>(c),
                           static_cast<tables::VnicId>(10 + c), cli, a_ip, 32,
                           static_cast<std::uint16_t>(20000 + c * 64),
                           common::milliseconds(1)));
  }
  // Checkpoint the fleet samplers now: the next refresh must measure only
  // the loaded window, not the 2s idle settle above, or the client hosts
  // would look idle and hand the recovery path a free replacement.
  bed.controller().refresh_fleet_sample();
  // Publish the weight book from this quiet snapshot: A's pool has no load
  // yet, so load-aware starts balanced. Publishing after A's clients ramp
  // would dump the whole load on whichever FE sampled lightest.
  if (kind == PolicyKind::kLoadAwareWeighted) {
    bed.controller().publish_fe_weights();
  }
  bed.run_for(common::milliseconds(500));
  bed.controller().refresh_fleet_sample();

  auto offered = [&senders]() {
    std::uint64_t s = 0;
    for (const auto& p : senders) s += *p;
    return s;
  };

  // Baseline window.
  const common::Duration window =
      fl.smoke ? common::milliseconds(250) : common::milliseconds(500);
  std::uint64_t sent0 = offered(), del0 = delivered;
  bed.run_for(window + window);
  FailoverResult r;
  {
    const std::uint64_t ws = offered() - sent0, wd = delivered - del0;
    r.pre_loss =
        ws == 0 ? 0 : 1.0 - static_cast<double>(wd) / static_cast<double>(ws);
  }

  // Crash the pool's first FE on every shard network, notify failover.
  const auto pool0 = bed.controller().fe_nodes_of(100);
  const sim::NodeId victim = pool0.front();
  for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
    bed.network_of_shard(s).crash(victim);
  }
  bed.controller().handle_fe_crash(victim);

  const int windows = fl.smoke ? 6 : 8;
  std::uint64_t post_sent = 0, post_del = 0;
  for (int w = 0; w < windows; ++w) {
    sent0 = offered();
    del0 = delivered;
    bed.run_for(window);
    const std::uint64_t ws = offered() - sent0, wd = delivered - del0;
    post_sent += ws;
    post_del += wd;
    const double loss =
        ws == 0 ? 0 : 1.0 - static_cast<double>(wd) / static_cast<double>(ws);
    r.peak_window_loss = std::max(r.peak_window_loss, loss);
  }
  r.post_loss = post_sent == 0
                    ? 0
                    : 1.0 - static_cast<double>(post_del) /
                          static_cast<double>(post_sent);
  r.lost_packets = post_sent - post_del;
  r.pool_final = bed.controller().fe_nodes_of(100).size();
  r.pool_restored = r.pool_final >= 4;
  r.displacements = bed.controller().displacement_events();
  r.fingerprint = bed.net_totals().delivered ^
                  (static_cast<std::uint64_t>(r.pool_final) << 56);
  return r;
}

const char* policy_key(PolicyKind k) { return policy::to_string(k); }

}  // namespace

int main(int argc, char** argv) {
  MatrixFlags fl;
  fl.shards = static_cast<std::size_t>(
      std::max(1L, benchutil::int_flag(argc, argv, "--shards", 1)));
  fl.threads = static_cast<int>(
      std::max(1L, benchutil::int_flag(argc, argv, "--threads", 1)));
  fl.smoke = benchutil::has_flag(argc, argv, "--smoke");

  benchutil::banner(
      "FE-selection policy matrix (DESIGN.md \xc2\xa7" "14)",
      "load-aware weights route around a hot FE; push-aside restores a "
      "crashed pool when no idle host exists");

  std::map<PolicyKind, NoisyResult> noisy;
  std::map<PolicyKind, FailoverResult> fo;
  for (PolicyKind k : kPolicies) {
    noisy[k] = run_noisy_neighbor(k, fl);
    fo[k] = run_tight_pool_failover(k, fl);
  }

  benchutil::Table nt({"policy", "cps", "p99 be_rx (us)", "avg be_rx (us)",
                       "p99 local_rx (us)", "probe delivered"});
  for (PolicyKind k : kPolicies) {
    const NoisyResult& r = noisy[k];
    nt.add_row({policy_key(k), benchutil::fmt_si(r.cps, 1),
                benchutil::fmt(r.p99_be_rx_us, 1),
                benchutil::fmt(r.avg_be_rx_us, 1),
                benchutil::fmt(r.p99_local_rx_us, 1),
                benchutil::fmt_pct(r.delivered_fraction)});
  }
  nt.print();
  std::printf("\n");
  benchutil::Table ft({"policy", "pre loss", "post loss", "peak loss",
                       "pool", "displaced"});
  for (PolicyKind k : kPolicies) {
    const FailoverResult& r = fo[k];
    ft.add_row({policy_key(k), benchutil::fmt_pct(r.pre_loss),
                benchutil::fmt_pct(r.post_loss),
                benchutil::fmt_pct(r.peak_window_loss),
                std::to_string(r.pool_final),
                std::to_string(r.displacements)});
  }
  ft.print();

  const NoisyResult& st_n = noisy[PolicyKind::kStaticHash];
  const NoisyResult& la_n = noisy[PolicyKind::kLoadAwareWeighted];
  const FailoverResult& st_f = fo[PolicyKind::kStaticHash];
  const FailoverResult& pa_f = fo[PolicyKind::kPushAsideDisplacement];

  const bool la_beats_p99 = la_n.p99_be_rx_us < st_n.p99_be_rx_us &&
                            la_n.delivered_fraction >= st_n.delivered_fraction;
  const bool pa_beats_loss =
      pa_f.pool_restored && !st_f.pool_restored &&
      pa_f.post_loss < st_f.post_loss;
  benchutil::verdict(la_beats_p99,
                     "load-aware beats static on p99 through a noisy "
                     "neighbor (weighted rendezvous routes around it)");
  benchutil::verdict(pa_beats_loss,
                     "push-aside beats static on failover loss in a tight "
                     "pool (displaced spare restores the minimum)");
  benchutil::verdict(st_n.delivered_fraction > 0 && st_f.pre_loss < 0.5,
                     "static baseline carried traffic in both scenarios");

  FILE* f = std::fopen("BENCH_policy.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"schema\": 1,\n");
    std::fprintf(f, "  \"sharding\": {\"shards\": %zu, \"threads\": %d},\n",
                 fl.shards, fl.threads);
    std::fprintf(f, "  \"noisy_neighbor\": {\n");
    for (std::size_t i = 0; i < 3; ++i) {
      const NoisyResult& r = noisy[kPolicies[i]];
      std::fprintf(f,
                   "    \"%s\": {\"cps\": %.1f, "
                   "\"be_rx_p99_latency_us\": %.3f, "
                   "\"be_rx_avg_latency_us\": %.3f, "
                   "\"local_rx_p99_latency_us\": %.3f, "
                   "\"probe_delivered\": %.4f, "
                   "\"fingerprint\": \"%016llx\"}%s\n",
                   policy_key(kPolicies[i]), r.cps, r.p99_be_rx_us,
                   r.avg_be_rx_us, r.p99_local_rx_us, r.delivered_fraction,
                   static_cast<unsigned long long>(r.fingerprint),
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  },\n  \"failover_tight_pool\": {\n");
    for (std::size_t i = 0; i < 3; ++i) {
      const FailoverResult& r = fo[kPolicies[i]];
      std::fprintf(
          f,
          "    \"%s\": {\"pre_loss\": %.4f, \"post_loss\": %.4f, "
          "\"peak_window_loss\": %.4f, \"final_fes\": %zu, "
          "\"pool_restored\": %s, \"displacement_events\": %llu, "
          "\"lost_packets\": %llu, \"fingerprint\": \"%016llx\"}%s\n",
          policy_key(kPolicies[i]), r.pre_loss, r.post_loss,
          r.peak_window_loss, r.pool_final,
          r.pool_restored ? "true" : "false",
          static_cast<unsigned long long>(r.displacements),
          static_cast<unsigned long long>(r.lost_packets),
          static_cast<unsigned long long>(r.fingerprint),
          i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\n  wrote BENCH_policy.json\n");
  }

  return (la_beats_p99 || pa_beats_loss) ? 0 : 1;
}
