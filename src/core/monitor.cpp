#include "src/core/monitor.h"

#include <algorithm>

#include "src/telemetry/hub.h"
#include "src/vswitch/vswitch.h"

namespace nezha::core {

namespace {

/// §C.2 guard: suspend auto-removal when more than this fraction of
/// watched targets appear dead simultaneously.
constexpr double kWidespreadFailureFraction = 0.5;

void record_probe(telemetry::Hub* hub, common::TimePoint at,
                  std::uint32_t node, telemetry::EventKind kind,
                  std::uint64_t target, std::uint64_t probe_id) {
  if (hub == nullptr) return;
  telemetry::TraceEvent e;
  e.at = at;
  e.node = node;
  e.kind = kind;
  e.a = target;
  e.b = probe_id;
  e.packet_id = probe_id;
  hub->record(e);
}

}  // namespace

HealthMonitor::HealthMonitor(sim::NodeId id, net::Ipv4Addr underlay_ip,
                             sim::EventLoop& loop, sim::Network& network,
                             MonitorConfig config)
    : Node(id, underlay_ip, net::MacAddr(0xfeedULL)),
      loop_(loop), network_(network), config_(config) {}

void HealthMonitor::watch(sim::NodeId node, net::Ipv4Addr ip) {
  targets_.emplace(node, Target{.ip = ip});
}

void HealthMonitor::start() {
  if (started_) return;
  started_ = true;
  loop_.schedule_periodic(config_.probe_interval, [this]() { probe_all(); });
}

void HealthMonitor::probe_all() {
  for (auto& [node, target] : targets_) {
    if (!target.declared_dead) send_probe(node, target);
  }
}

void HealthMonitor::send_probe(sim::NodeId node, Target& target) {
  const std::uint64_t probe_id = next_probe_id_++;
  net::FiveTuple ft{underlay_ip(), target.ip, 40000,
                    vswitch::kHealthProbePort, net::IpProto::kUdp};
  net::Packet probe = net::make_udp_packet(ft, 0, 0);
  probe.id = probe_id;
  target.outstanding_probe = probe_id;
  target.reply_seen = false;
  owners_.insert(Owner{probe_id, node});
  ++probes_sent_;
  record_probe(telemetry_, loop_.now(), id(),
               telemetry::EventKind::kProbeSent, node, probe_id);
  network_.send(id(), target.ip, std::move(probe));
  ++target.timeouts_pending;
  loop_.schedule_raw_at(
      loop_.now() + std::max<common::Duration>(config_.probe_timeout, 0),
      &HealthMonitor::check_probe_thunk, this, node);
}

bool HealthMonitor::disown(std::uint64_t probe_id, sim::NodeId& node) {
  // No held cell has id 0, so an unstamped packet finds no owner.
  Owner* owner = owners_.find(
      probe_id, [probe_id](const Owner& o) { return o.probe_id == probe_id; });
  if (owner == nullptr) return false;
  node = owner->node;
  owners_.erase(owner);
  return true;
}

void HealthMonitor::receive(net::Packet pkt) {
  sim::NodeId node = 0;
  if (!disown(pkt.id, node)) return;
  auto tit = targets_.find(node);
  if (tit == targets_.end()) return;
  ++replies_;
  record_probe(telemetry_, loop_.now(), id(),
               telemetry::EventKind::kProbeReply, node, pkt.id);
  if (tit->second.outstanding_probe == pkt.id) {
    tit->second.reply_seen = true;
    tit->second.consecutive_misses = 0;
  }
}

std::size_t HealthMonitor::dead_count() const {
  std::size_t n = 0;
  for (const auto& [node, target] : targets_) {
    if (target.declared_dead ||
        target.consecutive_misses >= config_.miss_threshold) {
      ++n;
    }
  }
  return n;
}

void HealthMonitor::check_probe(sim::NodeId node) {
  auto it = targets_.find(node);
  if (it == targets_.end()) return;
  Target& target = it->second;
  if (--target.timeouts_pending != 0) return;  // superseded by a later probe
  const std::uint64_t probe_id = target.outstanding_probe;
  sim::NodeId owner = 0;
  disown(probe_id, owner);
  if (target.reply_seen || target.declared_dead) return;
  ++target.consecutive_misses;
  if (target.consecutive_misses < config_.miss_threshold) return;

  // §C.2 guard: a sudden majority of "dead" FEs is more likely a monitoring
  // bug than a real mass failure; suspend automatic removal.
  const double dead_fraction =
      static_cast<double>(dead_count()) /
      static_cast<double>(targets_.empty() ? 1 : targets_.size());
  if (dead_fraction > kWidespreadFailureFraction) {
    ++suppressed_;
    record_probe(telemetry_, loop_.now(), id(),
                 telemetry::EventKind::kCrashSuppressed, node, probe_id);
    return;
  }
  target.declared_dead = true;
  ++crashes_;
  record_probe(telemetry_, loop_.now(), id(),
               telemetry::EventKind::kCrashDeclared, node, probe_id);
  if (on_crash_) on_crash_(node);
}

}  // namespace nezha::core
