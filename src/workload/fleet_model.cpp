#include "src/workload/fleet_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nezha::workload {

QuantileDistribution::QuantileDistribution(std::vector<Anchor> anchors)
    : anchors_(std::move(anchors)) {
  if (anchors_.size() < 2) {
    throw std::invalid_argument("QuantileDistribution needs >= 2 anchors");
  }
  std::sort(anchors_.begin(), anchors_.end(),
            [](const Anchor& a, const Anchor& b) {
              return a.quantile < b.quantile;
            });
}

double QuantileDistribution::value_at(double q) const {
  if (q <= anchors_.front().quantile) return anchors_.front().value;
  if (q >= anchors_.back().quantile) return anchors_.back().value;
  for (std::size_t i = 1; i < anchors_.size(); ++i) {
    if (q <= anchors_[i].quantile) {
      const Anchor& lo = anchors_[i - 1];
      const Anchor& hi = anchors_[i];
      const double t = (q - lo.quantile) / (hi.quantile - lo.quantile);
      // Log-linear interpolation keeps the heavy tail convex; fall back to
      // linear when a value is zero.
      if (lo.value > 0 && hi.value > 0) {
        return std::exp(std::log(lo.value) +
                        t * (std::log(hi.value) - std::log(lo.value)));
      }
      return lo.value + t * (hi.value - lo.value);
    }
  }
  return anchors_.back().value;
}

double QuantileDistribution::sample(common::Rng& rng) const {
  return value_at(rng.uniform());
}

std::string to_string(HotspotCause cause) {
  switch (cause) {
    case HotspotCause::kCps: return "CPS";
    case HotspotCause::kConcurrentFlows: return "#concurrent-flows";
    case HotspotCause::kVnics: return "#vNICs";
  }
  return "?";
}

FleetModel::FleetModel(FleetModelConfig config)
    : config_(config), rng_(config.seed) {}

std::vector<double> FleetModel::sample_cpu_utilization() {
  // Fig 4a anchors. The low quantiles are set so the mean lands near 5%.
  static const QuantileDistribution dist({{0.0, 0.002},
                                          {0.50, 0.025},
                                          {0.90, 0.15},
                                          {0.99, 0.41},
                                          {0.999, 0.68},
                                          {0.9999, 0.90},
                                          {1.0, 0.98}});
  std::vector<double> out(config_.num_vswitches);
  for (auto& v : out) v = dist.sample(rng_);
  return out;
}

std::vector<double> FleetModel::sample_memory_utilization() {
  // Fig 4b anchors; memory is even more skewed than CPU.
  static const QuantileDistribution dist({{0.0, 0.001},
                                          {0.50, 0.006},
                                          {0.90, 0.15},
                                          {0.99, 0.34},
                                          {0.999, 0.93},
                                          {0.9999, 0.96},
                                          {1.0, 0.96}});
  std::vector<double> out(config_.num_vswitches);
  for (auto& v : out) v = dist.sample(rng_);
  return out;
}

std::vector<double> FleetModel::sample_usage(HotspotCause kind,
                                             std::size_t n) {
  // Table 1 anchors, normalized to the P9999 user.
  const QuantileDistribution* dist = nullptr;
  static const QuantileDistribution cps({{0.0, 0.0005},
                                         {0.50, 0.0053},
                                         {0.90, 0.0141},
                                         {0.99, 0.0641},
                                         {0.999, 0.1838},
                                         {0.9999, 1.0},
                                         {1.0, 1.0}});
  static const QuantileDistribution flows({{0.0, 0.0008},
                                           {0.50, 0.0078},
                                           {0.90, 0.0236},
                                           {0.99, 0.0639},
                                           {0.999, 0.2917},
                                           {0.9999, 1.0},
                                           {1.0, 1.0}});
  static const QuantileDistribution vnics({{0.0, 0.0006},
                                           {0.50, 0.0065},
                                           {0.90, 0.01},
                                           {0.99, 0.06},
                                           {0.999, 0.55},
                                           {0.9999, 1.0},
                                           {1.0, 1.0}});
  switch (kind) {
    case HotspotCause::kCps: dist = &cps; break;
    case HotspotCause::kConcurrentFlows: dist = &flows; break;
    case HotspotCause::kVnics: dist = &vnics; break;
  }
  std::vector<double> out(n);
  for (auto& v : out) v = dist->sample(rng_);
  return out;
}

std::vector<HotspotCause> FleetModel::sample_hotspot_causes(std::size_t n) {
  // Fig 3 / App A.1: CPS 61%, #concurrent flows 30%, #vNICs 9%.
  std::vector<HotspotCause> out(n);
  for (auto& c : out) {
    const double u = rng_.uniform();
    if (u < 0.61) c = HotspotCause::kCps;
    else if (u < 0.91) c = HotspotCause::kConcurrentFlows;
    else c = HotspotCause::kVnics;
  }
  return out;
}

std::vector<FleetModel::HighCpsPair> FleetModel::sample_high_cps_pairs(
    std::size_t n) {
  // Fig 2: the vSwitch is saturated (>95%) for every high-CPS VM, while the
  // VM itself is mostly idle: 90% of VMs below 60% CPU.
  static const QuantileDistribution vm_cpu({{0.0, 0.05},
                                            {0.50, 0.28},
                                            {0.90, 0.60},
                                            {0.99, 0.85},
                                            {1.0, 0.97}});
  std::vector<HighCpsPair> out(n);
  for (auto& p : out) {
    p.vm_cpu = vm_cpu.sample(rng_);
    p.vswitch_cpu = rng_.uniform(0.95, 1.0);
  }
  return out;
}

// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::size_t kServerIdBase = 1000;
constexpr std::size_t kClientIdBase = 2000;
/// FEs per offloaded vNIC (the paper's minimum pool is 4).
constexpr std::size_t kFesPerVnic = 4;

/// vNIC id of pair i's server (kServerIdBase) or client (kClientIdBase).
/// Pairs take ids in blocks of 1000 that alternate server, client, server,
/// ... (1000-1999, 2000-2999, 3000-3999, ...), so no server id equals a
/// client id at any pair count.
tables::VnicId pair_vnic_id(std::size_t base, std::size_t i) {
  return static_cast<tables::VnicId>(base + i + 1000 * (i / 1000));
}

}  // namespace

FleetScenario::FleetScenario(core::Testbed& bed, FleetScenarioConfig config)
    : bed_(bed), config_(config) {}

void FleetScenario::deploy() {
  const sim::Topology& topo = bed_.network().topology();
  const std::uint32_t hosts_per_leaf =
      topo.is_clos() ? topo.config().clos.hosts_per_leaf : 1;
  const std::size_t num_leaves =
      topo.is_clos() ? topo.config().clos.num_leaves
                     : std::max<std::size_t>(bed_.size(), 1);

  // Heavy-hitter load shaping from the Table-1 CPS usage law; the heaviest
  // pair runs at roughly 10x the baseline, the lightest near it.
  FleetModel model(FleetModelConfig{config_.num_pairs, config_.seed});
  pair_load_scale_ = model.sample_usage(HotspotCause::kCps, config_.num_pairs);
  for (double& s : pair_load_scale_) s = 1.0 + 9.0 * s;

  for (std::size_t i = 0; i < config_.num_pairs; ++i) {
    // Server i: first host of leaf i*L/P — pairs stride across the whole
    // leaf tier instead of packing the first P leaves, so a fleet-scale
    // scenario loads every rack region (and, on a sharded bed, every
    // shard). Client: a host half the fabric away, so every pair's traffic
    // crosses the spine tier.
    const std::size_t server_leaf =
        (i * num_leaves) / std::max<std::size_t>(config_.num_pairs, 1) %
        num_leaves;
    const std::size_t client_leaf = (server_leaf + num_leaves / 2) % num_leaves;
    std::size_t server_node = server_leaf * hosts_per_leaf;
    std::size_t client_node = client_leaf * hosts_per_leaf + 1;
    server_node = std::min(server_node, bed_.size() - 1);
    client_node = std::min(client_node, bed_.size() - 1);
    if (client_node == server_node) {
      client_node = (server_node + 1) % bed_.size();
    }

    vswitch::VnicConfig server;
    server.id = pair_vnic_id(kServerIdBase, i);
    server.addr = tables::OverlayAddr{
        config_.vpc_id,
        net::Ipv4Addr(10, 50, static_cast<std::uint8_t>(i / 250),
                      static_cast<std::uint8_t>(i % 250 + 1))};
    server.profile.synthetic_rule_bytes = 2 << 20;
    bed_.add_vnic(server_node, server);

    vswitch::VnicConfig client;
    client.id = pair_vnic_id(kClientIdBase, i);
    client.addr = tables::OverlayAddr{
        config_.vpc_id,
        net::Ipv4Addr(10, 60, static_cast<std::uint8_t>(i / 250),
                      static_cast<std::uint8_t>(i % 250 + 1))};
    bed_.add_vnic(client_node, client);

    servers_.push_back(server.id);
    server_switches_.push_back(server_node);
    client_switches_.push_back(client_node);
  }
}

std::size_t FleetScenario::offload_all(std::size_t holdback) {
  std::size_t accepted = 0;
  const std::size_t n =
      servers_.size() > holdback ? servers_.size() - holdback : 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bed_.controller().trigger_offload(servers_[i], kFesPerVnic).ok()) {
      ++accepted;
    }
  }
  return accepted;
}

void FleetScenario::schedule_churn(common::Duration offload_at,
                                   common::Duration crash_at,
                                   common::Duration reseed_at) {
  const common::TimePoint t0 = bed_.loop().now();
  // (1) Offload push: bring every still-local server vNIC online
  // mid-window — the workflow offload_all's holdback left behind.
  bed_.engine()->schedule_fenced(t0 + offload_at, [this]() {
    for (tables::VnicId id : servers_) {
      if (bed_.controller().is_offloaded(id) ||
          bed_.controller().transition_pending(id)) {
        continue;
      }
      (void)bed_.controller().trigger_offload(id, kFesPerVnic);
    }
  });
  // (2) FE crash, detected the honest way: the monitor watches every FE
  // host (many targets keep the §C.2 widespread-failure fraction low),
  // then the victim — the lowest-numbered FE of the first server's pool at
  // fire time — crashes in the bed's one node directory, so it stops
  // answering on every shard, and failover arrives via probe loss → crash
  // declaration → the fenced handle_fe_crash callback.
  bed_.engine()->schedule_fenced(t0 + crash_at, [this]() {
    if (servers_.empty()) return;
    const std::vector<sim::NodeId> fes =
        bed_.controller().fe_nodes_of(servers_.front());
    if (fes.empty()) return;
    const sim::NodeId victim = *std::min_element(fes.begin(), fes.end());
    crashed_fe_ = victim;
    bed_.watch_fe_hosts();
    bed_.monitor().start();
    bed_.network().crash(victim);
  });
  // (3) Fleet-wide FE-selection reseed (§7.5) — the same push a production
  // controller uses to fix an uneven 5-tuple hash landing.
  bed_.engine()->schedule_fenced(t0 + reseed_at, [this]() {
    bed_.controller().reseed_fe_hash(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  });
}

void FleetScenario::start_traffic() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    CpsWorkloadConfig wl;
    wl.attempts_per_sec = config_.base_attempts_per_sec * pair_load_scale_[i];
    wl.seed = config_.seed * 1000003 + i;
    workloads_.push_back(std::make_unique<CpsWorkload>(
        bed_, client_switches_[i], pair_vnic_id(kClientIdBase, i),
        server_switches_[i], servers_[i], wl));
    workloads_.back()->start();
  }
}

void FleetScenario::stop_traffic() {
  for (auto& wl : workloads_) wl->stop();
}

std::uint64_t FleetScenario::fingerprint() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const auto& wl : workloads_) {
    h = fnv1a(h, wl->attempted());
    h = fnv1a(h, wl->completed());
  }
  // Fleet-wide network sums; the cross-shard counters read 0 at one shard.
  const core::Testbed::NetTotals t = bed_.net_totals();
  h = fnv1a(h, t.sent);
  h = fnv1a(h, t.delivered);
  h = fnv1a(h, t.dropped);
  h = fnv1a(h, t.in_flight);
  h = fnv1a(h, t.total_bytes);
  for (std::uint64_t b : t.spine_bytes) h = fnv1a(h, b);
  h = fnv1a(h, t.exported);
  h = fnv1a(h, t.imported);
  const core::Controller& ctl = bed_.controller();
  h = fnv1a(h, ctl.offload_events());
  h = fnv1a(h, ctl.fallback_events());
  h = fnv1a(h, ctl.scale_out_events());
  h = fnv1a(h, ctl.scale_in_events());
  h = fnv1a(h, ctl.failover_events());
  h = fnv1a(h, ctl.fes_provisioned_total());
  return h;
}

}  // namespace nezha::workload
