#include "support/scenarios.h"

#include <cstdio>

#include "src/tables/rule_set.h"

namespace nezha::support {

namespace {

vswitch::VnicConfig vnic(tables::VnicId id, net::Ipv4Addr ip) {
  vswitch::VnicConfig v;
  v.id = id;
  v.addr = tables::OverlayAddr{kVpc, ip};
  return v;
}

vswitch::VnicConfig server_vnic() {
  return vnic(kServer, net::Ipv4Addr(10, 0, 0, 100));
}

vswitch::VnicConfig client_vnic(int c) {
  return vnic(static_cast<tables::VnicId>(c + 1),
              net::Ipv4Addr(10, 0, 1, static_cast<std::uint8_t>(c + 1)));
}

/// Adds client c's vNIC on `host` and its CPS workload toward the server.
void add_client(CpsBed& s, int c, std::size_t host, std::size_t server_host,
                const workload::CpsWorkloadConfig& w) {
  const vswitch::VnicConfig client = client_vnic(c);
  s.bed->add_vnic(host, client);
  s.clients.push_back(std::make_unique<workload::CpsWorkload>(
      *s.bed, host, client.id, server_host, kServer, w));
}

}  // namespace

void CpsBed::start() {
  for (auto& c : clients) c->start();
}

void CpsBed::stop() {
  for (auto& c : clients) c->stop();
}

std::uint64_t CpsBed::completed() const {
  std::uint64_t n = 0;
  for (const auto& c : clients) n += c->completed();
  return n;
}

// ------------------------------------------------------ golden e2e bed

void use_burst_windows(core::TestbedConfig& cfg) {
  cfg.network.rx_burst_window = kNetBurstWindow;
  cfg.vswitch.cpu_burst_window = kCpuBurstWindow;
  cfg.vswitch.aging_period = kBurstAgingPeriod;
}

tables::AclRule random_acl_rule(common::Rng& rng) {
  tables::AclRule r;
  r.priority = static_cast<std::uint32_t>(rng.uniform_u64(0, 1000));
  r.src = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                         static_cast<std::uint8_t>(rng.uniform_u64(8, 24))};
  r.dst = tables::Prefix{net::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                         static_cast<std::uint8_t>(rng.uniform_u64(8, 24))};
  const std::uint16_t lo =
      static_cast<std::uint16_t>(rng.uniform_u64(0, 60000));
  r.dst_ports = tables::PortRange{
      lo, static_cast<std::uint16_t>(lo + rng.uniform_u64(0, 4000))};
  const std::uint64_t proto = rng.uniform_u64(0, 3);
  if (proto == 0) r.proto = net::IpProto::kTcp;
  if (proto == 1) r.proto = net::IpProto::kUdp;
  if (proto == 2) r.proto = net::IpProto::kIcmp;
  const std::uint64_t dir = rng.uniform_u64(0, 2);
  if (dir == 0) r.direction = flow::Direction::kTx;
  if (dir == 1) r.direction = flow::Direction::kRx;
  r.verdict = rng.chance(0.5) ? flow::Verdict::kDrop : flow::Verdict::kAccept;
  return r;
}

core::TestbedConfig e2e_config(bool bursts) {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 8;
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  if (bursts) use_burst_windows(cfg);
  return cfg;
}

CpsBed e2e_bed(const core::TestbedConfig& cfg, bool bursts) {
  CpsBed s{std::make_unique<core::Testbed>(cfg), {}};
  core::Testbed& bed = *s.bed;
  bed.add_vnic(0, server_vnic());
  common::Rng rng(0xe2e);
  tables::RuleTableSet& rules = *bed.vswitch(0).vnic(kServer)->rules();
  for (int i = 0; i < 1000; ++i) {
    tables::AclRule r = random_acl_rule(rng);
    r.priority += 10;  // keep priority 0 free
    r.verdict = flow::Verdict::kDrop;
    r.src.addr = net::Ipv4Addr(172, 16, static_cast<std::uint8_t>(i % 200), 1);
    r.src.length = 30;
    rules.acl().add_rule(r);
  }
  rules.commit_update();

  for (int c = 0; c < 2; ++c) {
    workload::CpsWorkloadConfig w;
    w.concurrency = 128;  // closed loop: ride at capacity
    w.seed = 300 + static_cast<std::uint64_t>(c);
    if (bursts) w.timer_window = kTimerWindow;
    add_client(s, c, 1 + static_cast<std::size_t>(c), 0, w);
  }
  for (std::size_t i = 0; i < bed.size(); ++i) bed.vswitch(i).start_aging();
  return s;
}

E2eFingerprint run_e2e(CpsBed& s) {
  s.start();
  s.bed->run_for(common::seconds(4));
  s.stop();
  return {s.bed->network().delivered(), s.completed()};
}

// ------------------------------------------------- hot-server CPS bed

core::TestbedConfig hot_server_config(bool clos) {
  core::TestbedConfig cfg;
  if (clos) cfg = core::make_clos_testbed_config(40, /*hosts_per_leaf=*/8);
  cfg.num_vswitches = 40;
  cfg.vswitch.cpu.cores = 2;
  cfg.vswitch.cpu.hz_per_core = 0.25e9;
  cfg.vswitch.cpu.max_queue_delay = common::milliseconds(16);
  cfg.vswitch.cost = tables::CostModel::production();
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  return cfg;
}

CpsBed hot_server_bed(const core::TestbedConfig& cfg,
                      const HotServerLoad& load) {
  CpsBed s{std::make_unique<core::Testbed>(cfg), {}};
  vswitch::VnicConfig server = server_vnic();
  server.profile.synthetic_rule_bytes = 8 << 20;
  s.bed->add_vnic(kHotServerHost, server);

  for (int c = 0; c < 4; ++c) {
    workload::CpsWorkloadConfig w;
    w.concurrency = load.concurrency;
    w.attempts_per_sec = load.attempts_per_sec;
    w.seed = load.seed_base + static_cast<std::uint64_t>(c);
    w.server_kernel = workload::VmKernelConfig{.vcpus = load.server_vcpus,
                                               .cps_per_core = 16500,
                                               .contention = 0.045};
    w.client_kernel =
        workload::VmKernelConfig{.vcpus = 64, .cps_per_core = 30000};
    add_client(s, c, 32 + static_cast<std::size_t>(c), kHotServerHost, w);
  }
  return s;
}

double run_hot_server(CpsBed& s, std::size_t fes, common::Duration warmup,
                      common::Duration window) {
  core::Testbed& bed = *s.bed;
  if (fes > 0) {
    auto st = bed.controller().trigger_offload(kServer, fes);
    if (!st.ok()) {
      std::fprintf(stderr, "offload failed: %s\n", st.error().message.c_str());
      return 0;
    }
    bed.run_for(common::seconds(4));  // activation completes
  }
  const common::TimePoint t0 = bed.loop().now();
  for (auto& c : s.clients) c->measure_window(t0 + warmup, t0 + window);
  s.start();
  bed.run_for(window);
  s.stop();
  double cps = 0;
  for (auto& c : s.clients) cps += c->window_cps();
  return cps;
}

// ------------------------------------------------------ offloaded pair

core::TestbedConfig pair_config(bool clos) {
  core::TestbedConfig cfg;
  if (clos) cfg = core::make_clos_testbed_config(16, /*hosts_per_leaf=*/4);
  cfg.num_vswitches = 16;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  return cfg;
}

void add_pair(core::Testbed& bed, int clients) {
  bed.add_vnic(kPairServerHost, server_vnic());
  for (int c = 0; c < clients; ++c) {
    bed.add_vnic(kPairClientHost + static_cast<std::size_t>(c),
                 client_vnic(c));
  }
}

net::FiveTuple pair_flow(std::uint16_t src_port, int client) {
  return net::FiveTuple{client_vnic(client).addr.ip,
                        server_vnic().addr.ip, src_port, 80,
                        net::IpProto::kUdp};
}

void offload_pair(core::Testbed& bed) {
  (void)bed.controller().trigger_offload(kServer, 4);
  bed.run_for(common::seconds(4));
}

void pump_pair(core::Testbed& bed, int flows, common::Duration period,
               common::TimePoint until, std::function<void()> on_burst) {
  auto burst = [&bed, flows, on_burst = std::move(on_burst)]() {
    for (int f = 0; f < flows; ++f) {
      const net::FiveTuple ft =
          pair_flow(static_cast<std::uint16_t>(20000 + f));
      bed.vswitch(kPairClientHost)
          .from_vm(1, net::make_udp_packet(ft, 100, kVpc));
    }
    if (on_burst) on_burst();
  };
  burst();
  sim::EventLoop& loop = bed.loop_of(kPairClientHost);
  auto id = std::make_shared<sim::EventId>();
  *id = loop.schedule_periodic(period, [&loop, until, burst, id]() {
    if (loop.now() > until) {
      loop.cancel(*id);
      return;
    }
    burst();
  });
}

void crash_pair_fe(core::Testbed& bed) {
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId n : bed.controller().fe_nodes_of(kServer)) {
    if (n != kPairClientHost) {
      victim = n;
      break;
    }
  }
  bed.network_of(victim).crash(victim);
}

// ------------------------------------------------ offloaded TCP pair

core::TestbedConfig tcp_pair_config() {
  core::TestbedConfig cfg;
  cfg.num_vswitches = 8;
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.vswitch.learning_interval = common::seconds(100000);
  return cfg;
}

bool add_offloaded_tcp_pair(core::Testbed& bed) {
  const net::FiveTuple ft = tcp_pair_flow(0);
  bed.add_vnic(0, vnic(1, ft.src_ip));
  bed.add_vnic(1, vnic(2, ft.dst_ip));
  if (!bed.controller().trigger_offload(2).ok()) return false;
  bed.run_for(common::seconds(4));
  return true;
}

net::FiveTuple tcp_pair_flow(std::uint16_t sport) {
  return net::FiveTuple{net::Ipv4Addr(10, 0, 0, 1), net::Ipv4Addr(10, 0, 0, 2),
                        sport, 80, net::IpProto::kTcp};
}

void pump_tcp_pair(core::Testbed& bed, std::uint16_t sport, int iterations) {
  const net::FiveTuple ft = tcp_pair_flow(sport);
  for (int i = 0; i < iterations; ++i) {
    bed.vswitch(0).from_vm(
        1, net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 100, kVpc));
    bed.vswitch(1).from_vm(2, net::make_tcp_packet(ft.reversed(),
                                                   net::TcpFlags{.ack = true},
                                                   100, kVpc));
    bed.run_for(common::milliseconds(1));
  }
}

// --------------------------------------------------- offload replays

vswitch::VnicConfig numbered_vnic(int i) {
  vswitch::VnicConfig v = vnic(
      static_cast<tables::VnicId>(i + 1),
      net::Ipv4Addr(10, static_cast<std::uint8_t>(1 + i / 60000),
                    static_cast<std::uint8_t>((i / 250) % 240),
                    static_cast<std::uint8_t>(i % 250 + 1)));
  v.profile.synthetic_rule_bytes = 2 << 20;
  return v;
}

// ------------------------------------------------------ fleet scenarios

std::size_t stalled_pairs(const workload::FleetScenario& scenario) {
  std::size_t n = 0;
  for (const auto& w : scenario.workloads()) {
    if (w->attempted() > 0 && w->completed() == 0) ++n;
  }
  return n;
}

}  // namespace nezha::support
