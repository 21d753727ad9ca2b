#include "src/core/testbed.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace nezha::core {

TestbedConfig make_clos_testbed_config(std::size_t num_vswitches,
                                       std::uint32_t hosts_per_leaf,
                                       std::uint32_t num_spines,
                                       double oversubscription) {
  TestbedConfig config;
  config.num_vswitches = num_vswitches;
  config.topology.kind = sim::FabricKind::kClos;
  if (hosts_per_leaf == 0) hosts_per_leaf = 1;
  // The monitor occupies node id num_vswitches + 1; cover it with a leaf.
  const std::size_t nodes = num_vswitches + 2;
  config.topology.clos.hosts_per_leaf = hosts_per_leaf;
  config.topology.clos.num_leaves = static_cast<std::uint32_t>(
      (nodes + hosts_per_leaf - 1) / hosts_per_leaf);
  config.topology.clos.num_spines = num_spines;
  config.topology.clos.oversubscription = oversubscription;
  return config;
}

Testbed::Testbed(TestbedConfig config) : topology_(config.topology) {
  // The monitor occupies node id num_vswitches + 1; shard the whole id
  // range so every node (including it) has a home shard.
  shard_map_ = sim::ShardMap::make(
      topology_.rack_count(config.num_vswitches + 2),
      static_cast<std::uint32_t>(config.shards));
  threads_ = config.threads < 1 ? 1 : config.threads;

  shards_.resize(shard_map_.shards);
  std::vector<sim::ShardedEngine::Shard> engine_shards;
  for (Shard& sh : shards_) {
    sh.loop = std::make_unique<sim::EventLoop>();
    sh.network = std::make_unique<sim::Network>(*sh.loop, topology_,
                                                directory_, config.network);
    engine_shards.push_back({sh.loop.get(), sh.network.get()});
  }
  sim::ShardedEngineConfig ecfg;
  ecfg.epoch = topology_.min_cross_rack_latency();
  ecfg.fast_forward = config.shard_fast_forward;
  engine_ =
      std::make_unique<sim::ShardedEngine>(std::move(engine_shards), ecfg);
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    network_of_shard(s).set_engine(engine_.get(), s);
  }

  for (std::size_t i = 0; i < config.num_vswitches; ++i) {
    const std::uint32_t s = shard_of_node(static_cast<sim::NodeId>(i));
    auto vs = std::make_unique<vswitch::VSwitch>(
        static_cast<sim::NodeId>(i), underlay_ip(i), loop_of_shard(s),
        network_of_shard(s), gateway_, config.vswitch);
    network_of_shard(s).attach(*vs);
    switches_.push_back(std::move(vs));
  }
  // The controller keeps shard 0's clock; its cross-shard continuations
  // run as fenced sections at epoch barriers.
  controller_ = std::make_unique<Controller>(loop(), *engine_, gateway_,
                                             config.controller);
  for (auto& vs : switches_) controller_->add_vswitch(vs.get());
  const sim::NodeId monitor_id =
      static_cast<sim::NodeId>(config.num_vswitches + 1);
  const std::uint32_t monitor_shard = shard_of_node(monitor_id);
  monitor_ = std::make_unique<HealthMonitor>(
      monitor_id, net::Ipv4Addr(10, 255, 0, 1), loop_of_shard(monitor_shard),
      network_of_shard(monitor_shard), config.monitor);
  network_of_shard(monitor_shard).attach(*monitor_);
  // The monitor and the link prober fire these from their shard's advance
  // phase; failover touches the whole fleet, so it becomes a fenced section
  // at the next barrier (due 0 = "as soon as everyone is parked").
  monitor_->set_crash_callback([this](sim::NodeId node) {
    engine_->schedule_fenced(
        0, [this, node]() { controller_->handle_fe_crash(node); });
  });
  link_prober_ = std::make_unique<LinkProber>(loop(), network());
  link_prober_->set_failure_callback(
      [this](tables::VnicId id, sim::NodeId fe) {
        engine_->schedule_fenced(
            0, [this, id, fe]() { controller_->handle_link_failure(id, fe); });
      });
  if (config.telemetry.enabled) {
    // Probe replies trail probe sends by up to the probe timeout; the SLO
    // tracker compares replies against the probe count from this many
    // sampler ticks ago so in-flight probes never read as loss.
    const common::Duration period = config.telemetry.sample_period < 1
                                        ? 1
                                        : config.telemetry.sample_period;
    slo_probe_lag_ticks_ = static_cast<std::uint32_t>(
        (config.monitor.probe_timeout + period - 1) / period + 1);
    wire_telemetry(config.telemetry);
  }
}

void Testbed::wire_telemetry(const telemetry::TelemetryConfig& cfg) {
  // Node-id space: vSwitches occupy [0, N), the monitor N+1; anything else
  // lands in the hub's spillover ring. Sharded beds get one hub per shard
  // (disjoint packet-id streams, own sampler on the shard's loop) so the
  // datapath never records across threads.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    shards_[s].hub =
        std::make_unique<telemetry::Hub>(switches_.size() + 2, cfg);
    shards_[s].hub->set_packet_id_stream(s);
  }
  controller_->set_telemetry(telemetry());
  monitor_->set_telemetry(telemetry_of_shard(
      shard_of_node(static_cast<sim::NodeId>(switches_.size() + 1))));
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    wire_shard_telemetry(s, telemetry_of_shard(s));
  }
  // Fence lifecycle into shard 0's flight recorder (fence taps always run
  // in a quiescent context, on the thread that owns shard 0's hub). Node
  // id = switches_.size(): the spare slot between the vSwitches [0, N)
  // and the monitor N+1 — "the controller".
  telemetry::Hub* hub0 = telemetry();
  const auto ctrl_node = static_cast<std::uint32_t>(switches_.size());
  engine_->set_fence_trace(
      [hub0, ctrl_node](const sim::ShardedEngine::FenceTracePoint& p) {
        telemetry::TraceEvent e;
        e.at = p.at;
        e.node = ctrl_node;
        e.kind = p.executed ? telemetry::EventKind::kFenceExec
                            : telemetry::EventKind::kFenceSched;
        e.a = static_cast<std::uint64_t>(p.due < 0 ? 0 : p.due);
        e.b = p.seq;
        hub0->record(e);
      });
}

void Testbed::wire_shard_telemetry(std::uint32_t shard, telemetry::Hub* hub) {
  sim::Network* net = &network_of_shard(shard);
  sim::EventLoop* loop = &loop_of_shard(shard);
  net->set_telemetry(hub);

  telemetry::MetricsRegistry& m = hub->metrics();
  m.gauge("net.delivered",
          [net] { return static_cast<double>(net->delivered()); });
  m.gauge("net.dropped",
          [net] { return static_cast<double>(net->dropped_total()); });
  m.gauge("net.in_flight",
          [net] { return static_cast<double>(net->in_flight()); });
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    if (shard_of_node(static_cast<sim::NodeId>(i)) != shard) continue;
    vswitch::VSwitch* vs = switches_[i].get();
    vs->set_telemetry(hub);
    const std::string p = "vs" + std::to_string(i);
    // The sampler's checkpoint lives in telemetry (shared_ptr in the
    // closure), so reading the gauge never mutates simulation state.
    m.gauge(p + ".cpu_util",
            [vs, loop, s = std::make_shared<vswitch::UtilizationSampler>()] {
              return s->sample(vs->cpu(), loop->now());
            });
    m.gauge(p + ".sessions",
            [vs] { return static_cast<double>(vs->sessions().size()); });
    m.gauge(p + ".session_mem",
            [vs] { return vs->session_memory().utilization(); });
    m.gauge(p + ".port_q", [net, id = vs->id()] {
      return static_cast<double>(net->port_queued_bytes(id));
    });
  }
  for (std::size_t i = 0; i < net->fabric_link_count(); ++i) {
    m.gauge("net.fabric_q." + std::to_string(i), [net, i] {
      return static_cast<double>(net->fabric_queued_bytes(i));
    });
  }
  const sim::NodeId monitor_id =
      static_cast<sim::NodeId>(switches_.size() + 1);
  if (shard == shard_of_node(monitor_id)) {
    // Probe-loss inputs for the SLO tracker; the monitor lives on exactly
    // one shard, so only that shard's series carries these.
    HealthMonitor* mon = monitor_.get();
    m.gauge("mon.probes_sent",
            [mon] { return static_cast<double>(mon->probes_sent()); });
    m.gauge("mon.probe_replies",
            [mon] { return static_cast<double>(mon->replies_received()); });
  }
  sim::ShardedEngine* eng = engine_.get();
  if (shard == 0) {
    // Engine-global counters are written only in epoch barriers'
    // completion steps, which every worker is parked for; shard 0's
    // sampler reads them mid-epoch, so the barrier orders the two.
    m.gauge("sim.epochs_skipped",
            [eng] { return static_cast<double>(eng->epochs_skipped()); });
    m.gauge("sim.fenced_sections", [eng] {
      return static_cast<double>(eng->fenced_sections_run());
    });
    m.gauge("sim.fences_queued",
            [eng] { return static_cast<double>(eng->fences_queued()); });
  }
  if (shards_.size() > 1) {
    // Wall-clock engine telemetry, wired only where workers can wait on
    // each other: a one-shard document stays byte-identical run to run.
    // Per-shard barrier-wait histogram: observed by the shard's owning
    // worker, sampled by the same worker's advance phase — per-shard hubs
    // keep the registries disjoint across threads.
    const telemetry::MetricsRegistry::Id wait_id =
        m.histogram("sim.barrier_wait_us", 0.0, 10000.0, 32);
    telemetry::MetricsRegistry* reg = &m;
    eng->set_barrier_wait_observer(
        shard, [reg, wait_id](double us) { reg->observe(wait_id, us); });
    // Shard-phase profile section: every *_wall_ns field is wall-clock
    // (report-excluded from determinism gates); `epochs` and the shard-0
    // fence_barriers / ff_jumps counts are thread- and run-invariant.
    // Written at write_json time, i.e. quiescent.
    m.add_json_section("sim.profile", [eng, shard](std::string& out) {
      const sim::ShardedEngine::PhaseProfile p = eng->phase_profile(shard);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"shard\": %u, \"epochs\": %llu, "
                    "\"snapshot_wall_ns\": %llu, \"advance_wall_ns\": %llu, "
                    "\"barrier_wait_wall_ns\": %llu, "
                    "\"fast_forward_wall_ns\": %llu",
                    shard, static_cast<unsigned long long>(p.epochs),
                    static_cast<unsigned long long>(p.snapshot_ns),
                    static_cast<unsigned long long>(p.advance_ns),
                    static_cast<unsigned long long>(p.barrier_wait_ns),
                    static_cast<unsigned long long>(p.fast_forward_ns));
      out += buf;
      if (shard == 0) {
        const sim::ShardedEngine::EngineProfile ep = eng->engine_profile();
        std::snprintf(buf, sizeof(buf),
                      ", \"fence_barriers\": %llu, \"ff_jumps\": %llu, "
                      "\"fence_wall_ns\": %llu",
                      static_cast<unsigned long long>(ep.fence_barriers),
                      static_cast<unsigned long long>(ep.ff_jumps),
                      static_cast<unsigned long long>(ep.fence_wall_ns));
        out += buf;
      }
      out += '}';
    });
  }
  // SLO tracker last: it resolves ids against everything registered above
  // and must precede start_sampler so its violation counters join the
  // series and its tick observer sees every tick.
  hub->enable_slo(telemetry::SloWiring{
      static_cast<std::uint32_t>(switches_.size()),
      static_cast<std::uint32_t>(switches_.size() + 1),
      slo_probe_lag_ticks_});
  hub->start_sampler(*loop);
}

Testbed::NetTotals Testbed::net_totals() const {
  NetTotals t;
  for (const Shard& sh : shards_) {
    const sim::Network& n = *sh.network;
    t.sent += n.sent();
    t.delivered += n.delivered();
    t.dropped += n.dropped_total();
    t.in_flight += n.in_flight();
    t.exported += n.exported();
    t.imported += n.imported();
    t.total_bytes += n.total_bytes_sent();
    const auto& sb = n.spine_bytes();
    if (t.spine_bytes.size() < sb.size()) t.spine_bytes.resize(sb.size());
    for (std::size_t i = 0; i < sb.size(); ++i) t.spine_bytes[i] += sb[i];
  }
  return t;
}

void Testbed::watch_fe_links(tables::VnicId id) {
  vswitch::VSwitch* home = controller_->home_of(id);
  if (home == nullptr) return;
  for (sim::NodeId fe : controller_->fe_nodes_of(id)) {
    link_prober_->watch(id, home, fe, vswitch(fe).underlay_ip());
  }
  link_prober_->start();
}

vswitch::VSwitch& Testbed::add_vnic(std::size_t i,
                                    const vswitch::VnicConfig& config,
                                    bool stateful_decap) {
  vswitch::VSwitch& vs = vswitch(i);
  auto status = vs.add_vnic(config, stateful_decap);
  if (!status.ok()) {
    throw std::runtime_error("add_vnic failed: " + status.error().message);
  }
  controller_->register_vnic(&vs, config, stateful_decap);
  return vs;
}

void Testbed::watch_fe_hosts() {
  for (auto& vs : switches_) {
    if (vs->frontend_count() > 0) {
      monitor_->watch(vs->id(), vs->underlay_ip());
    }
  }
}

}  // namespace nezha::core
