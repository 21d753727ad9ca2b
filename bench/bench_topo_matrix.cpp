// Topology matrix: single-rack vs 2-tier Clos for the paper's two most
// fabric-sensitive scenarios.
//
// Fig 12 shape (end-to-end latency of an offloaded vNIC under load) and
// Fig 14 shape (packet loss during FE failover) are rerun on both fabrics
// with otherwise identical configs. The Clos columns show what the
// single-rack experiments hide: the extra leaf→spine→leaf hops on every
// cross-rack BE↔FE leg and the spine serialization shared by all pairs.
//
// Output: human-readable tables on stdout AND machine-readable
// BENCH_topo.json (schema in README.md) recorded next to the binary's CWD,
// mirroring the BENCH_engine.json convention.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "support/scenarios.h"

using namespace nezha;
using support::kPairClientHost;
using support::kPairServerHost;
using support::kVpc;

namespace {

core::TestbedConfig base_config(bool clos, std::size_t shards, int threads) {
  core::TestbedConfig cfg = support::pair_config(clos);
  // --shards only applies to the Clos runs: sharding partitions racks, and
  // the single-rack fabric has exactly one.
  cfg.shards = clos ? shards : 1;
  cfg.threads = threads;
  return cfg;
}

// ------------------------------------------------- Fig 12 shape: latency

struct LatencyResult {
  double avg_us = 0;
  double p99_us = 0;
  double delivered_fraction = 0;
  double throughput_pps = 0;
};

/// Offloaded server under steady cross-switch UDP load; a 1%-rate probe
/// flow measures delivery latency. Condensed from bench_fig12 (one load
/// point, offload always on) so the fabric is the only variable.
LatencyResult run_latency(bool clos, std::size_t shards, int threads) {
  core::Testbed bed(base_config(clos, shards, threads));
  // On a sharded bed the endpoints may land in different shards, so every
  // client-side event schedules on the client's shard loop and latency is
  // read off the server's (deliveries fire on the server's shard thread).
  sim::EventLoop& client_loop = bed.loop_of(kPairClientHost);
  sim::EventLoop& server_loop = bed.loop_of(kPairServerHost);
  support::add_pair(bed);

  constexpr int kFlows = 32;
  const net::FiveTuple probe_ft = support::pair_flow(39999);
  // Bounded mode: the matrix sweeps several fabrics per run, so keep the
  // probe-latency memory O(buckets) (mean stays exact, p99 within 10us).
  common::Percentiles latency =
      common::Percentiles::bounded(0.0, 20000.0, 2000);
  std::uint64_t probe_delivered = 0, delivered = 0;
  bed.vswitch(kPairServerHost).set_vm_delivery(
      [&](tables::VnicId, const net::Packet& p) {
        ++delivered;
        if (p.inner.ft == probe_ft) {
          ++probe_delivered;
          latency.add(common::to_micros(server_loop.now() - p.created_at));
        }
      });

  support::offload_pair(bed);

  // Warm all flows onto the fast path.
  vswitch::VSwitch& client = bed.vswitch(kPairClientHost);
  for (int f = 0; f < kFlows; ++f) {
    const net::FiveTuple ft =
        support::pair_flow(static_cast<std::uint16_t>(30000 + f));
    client.from_vm(1, net::make_udp_packet(ft, 200, kVpc));
  }
  client.from_vm(1, net::make_udp_packet(probe_ft, 200, kVpc));
  bed.run_for(common::milliseconds(100));
  latency.clear();
  probe_delivered = 0;
  delivered = 0;

  // 32 flows x 2K pps + probe at 500 pps for 400ms.
  const common::TimePoint t0 = client_loop.now();
  const common::Duration window = common::milliseconds(400);
  std::uint64_t probe_sent = 0;
  for (int f = 0; f < kFlows; ++f) {
    const net::FiveTuple ft =
        support::pair_flow(static_cast<std::uint16_t>(30000 + f));
    for (common::TimePoint t = t0 + static_cast<common::Duration>(f * 97);
         t < t0 + window; t += common::microseconds(500)) {
      client_loop.schedule_at(t, [&client, ft]() {
        client.from_vm(1, net::make_udp_packet(ft, 200, kVpc));
      });
    }
  }
  for (common::TimePoint t = t0; t < t0 + window;
       t += common::milliseconds(2)) {
    client_loop.schedule_at(t, [&client, &client_loop, probe_ft]() {
      net::Packet pkt = net::make_udp_packet(probe_ft, 200, kVpc);
      pkt.created_at = client_loop.now();
      client.from_vm(1, std::move(pkt));
    });
    ++probe_sent;
  }
  bed.run_for(window + common::milliseconds(100));

  LatencyResult r;
  r.avg_us = latency.mean();
  r.p99_us = latency.percentile(99);
  r.delivered_fraction =
      probe_sent == 0 ? 0
                      : static_cast<double>(probe_delivered) /
                            static_cast<double>(probe_sent);
  r.throughput_pps = static_cast<double>(delivered) /
                     common::to_seconds(window);
  return r;
}

// ---------------------------------------------- Fig 14 shape: failover

struct FailoverResult {
  double surge_s = 0;
  double max_loss = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
};

/// Steady traffic toward an offloaded server, one FE crash, monitor-driven
/// failover; loss rate sampled in 250ms windows. Condensed from
/// bench_fig14 with identical detection parameters on both fabrics.
FailoverResult run_failover(bool clos, std::size_t shards, int threads) {
  core::Testbed bed(base_config(clos, shards, threads));
  support::add_pair(bed);
  std::uint64_t delivered = 0;
  bed.vswitch(kPairServerHost).set_vm_delivery(
      [&](tables::VnicId, const net::Packet&) { ++delivered; });
  support::offload_pair(bed);
  bed.watch_fe_hosts();
  bed.monitor().start();

  constexpr int kFlows = 200;
  std::uint64_t sent = 0;
  support::pump_pair(bed, kFlows, common::milliseconds(10), common::seconds(14),
                     [&sent] { sent += kFlows; });
  bed.run_for(common::seconds(2));
  support::crash_pair_fe(bed);

  FailoverResult r;
  std::uint64_t prev_sent = sent, prev_delivered = delivered;
  common::TimePoint loss_start = -1, loss_end = -1;
  for (int w = 0; w < 24; ++w) {
    bed.run_for(common::milliseconds(250));
    const std::uint64_t ws = sent - prev_sent;
    const std::uint64_t wd = delivered - prev_delivered;
    prev_sent = sent;
    prev_delivered = delivered;
    const double loss =
        ws == 0 ? 0
                : 1.0 - static_cast<double>(wd) / static_cast<double>(ws);
    if (loss > 0.01) {
      if (loss_start < 0) loss_start = bed.loop().now();
      loss_end = bed.loop().now();
      r.max_loss = std::max(r.max_loss, loss);
    }
  }
  r.surge_s = loss_start < 0
                  ? 0
                  : common::to_seconds(loss_end - loss_start) + 0.25;
  r.sent = sent;
  r.delivered = delivered;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  // Sharded-engine knobs (README: BENCH schema v4). Only the Clos runs can
  // shard (racks are the partition unit).
  const std::size_t shards = static_cast<std::size_t>(
      std::max(1L, benchutil::int_flag(argc, argv, "--shards", 1)));
  const int threads = static_cast<int>(
      std::max(1L, benchutil::int_flag(argc, argv, "--threads", 1)));

  benchutil::banner(
      "Topology matrix — single rack vs 2-tier Clos",
      "cross-rack offload adds bounded fabric latency; failover behaviour "
      "is fabric-independent");

  const LatencyResult lat_rack = run_latency(false, shards, threads);
  const LatencyResult lat_clos = run_latency(true, shards, threads);
  const FailoverResult fo_rack = run_failover(false, shards, threads);
  const FailoverResult fo_clos = run_failover(true, shards, threads);

  benchutil::Table lt({"fabric", "avg lat (us)", "p99 lat (us)",
                       "probe delivered", "throughput (pps)"});
  lt.add_row({"single-rack", benchutil::fmt(lat_rack.avg_us, 1),
              benchutil::fmt(lat_rack.p99_us, 1),
              benchutil::fmt_pct(lat_rack.delivered_fraction),
              benchutil::fmt_si(lat_rack.throughput_pps, 1)});
  lt.add_row({"clos", benchutil::fmt(lat_clos.avg_us, 1),
              benchutil::fmt(lat_clos.p99_us, 1),
              benchutil::fmt_pct(lat_clos.delivered_fraction),
              benchutil::fmt_si(lat_clos.throughput_pps, 1)});
  lt.print();

  std::printf("\n");
  benchutil::Table ft({"fabric", "loss surge (s)", "peak loss", "sent",
                       "delivered"});
  ft.add_row({"single-rack", benchutil::fmt(fo_rack.surge_s, 2),
              benchutil::fmt_pct(fo_rack.max_loss),
              std::to_string(fo_rack.sent),
              std::to_string(fo_rack.delivered)});
  ft.add_row({"clos", benchutil::fmt(fo_clos.surge_s, 2),
              benchutil::fmt_pct(fo_clos.max_loss),
              std::to_string(fo_clos.sent),
              std::to_string(fo_clos.delivered)});
  ft.print();

  const double lat_delta = lat_clos.avg_us - lat_rack.avg_us;
  benchutil::verdict(lat_delta > 0 && lat_delta < 100,
                     "Clos adds bounded cross-rack latency (2x leaf-spine "
                     "RTT per offloaded hop)");
  benchutil::verdict(lat_clos.delivered_fraction > 0.99,
                     "fabric queues absorb the offered load (no spine loss)");
  benchutil::verdict(fo_clos.surge_s > 0.5 && fo_clos.surge_s < 3.5 &&
                         fo_rack.surge_s > 0.5 && fo_rack.surge_s < 3.5,
                     "failover surge stays ~2s on both fabrics (detection-"
                     "bound, not fabric-bound)");

  FILE* f = std::fopen("BENCH_topo.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"schema\": 2,\n");
    std::fprintf(f,
                 "  \"sharding\": {\"shards\": %zu, \"threads\": %d},\n",
                 shards, threads);
    std::fprintf(f, "  \"fig12_latency\": {\n");
    auto lat_json = [f](const char* name, const LatencyResult& r,
                        const char* tail) {
      std::fprintf(f,
                   "    \"%s\": {\"avg_latency_us\": %.3f, "
                   "\"p99_latency_us\": %.3f, \"probe_delivered\": %.4f, "
                   "\"throughput_pps\": %.1f}%s\n",
                   name, r.avg_us, r.p99_us, r.delivered_fraction,
                   r.throughput_pps, tail);
    };
    lat_json("single_rack", lat_rack, ",");
    lat_json("clos", lat_clos, "");
    std::fprintf(f, "  },\n  \"fig14_failover\": {\n");
    auto fo_json = [f](const char* name, const FailoverResult& r,
                       const char* tail) {
      std::fprintf(f,
                   "    \"%s\": {\"loss_surge_s\": %.3f, "
                   "\"peak_loss\": %.4f, \"sent\": %llu, "
                   "\"delivered\": %llu}%s\n",
                   name, r.surge_s, r.max_loss,
                   static_cast<unsigned long long>(r.sent),
                   static_cast<unsigned long long>(r.delivered), tail);
    };
    fo_json("single_rack", fo_rack, ",");
    fo_json("clos", fo_clos, "");
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\n  wrote BENCH_topo.json\n");
  }
  return 0;
}
