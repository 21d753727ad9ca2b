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
    : Node(id, "health-monitor", underlay_ip, net::MacAddr(0xfeedULL)),
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
  own(probe_id, node);
  ++probes_sent_;
  record_probe(telemetry_, loop_.now(), id(),
               telemetry::EventKind::kProbeSent, node, probe_id);
  network_.send(id(), target.ip, std::move(probe));
  ++target.timeouts_pending;
  loop_.schedule_raw_at(
      loop_.now() + std::max<common::Duration>(config_.probe_timeout, 0),
      &HealthMonitor::check_probe_thunk, this, node);
}

void HealthMonitor::own(std::uint64_t probe_id, sim::NodeId node) {
  if ((owned_ + 1) * 4 > owners_.size() * 3) {
    std::vector<Owner> old(std::max<std::size_t>(16, owners_.size() * 2));
    old.swap(owners_);
    for (const Owner& o : old) {
      if (o.probe_id != 0) place(o);
    }
  }
  place(Owner{probe_id, node});
  ++owned_;
}

void HealthMonitor::place(const Owner& owner) {
  const std::size_t mask = owners_.size() - 1;
  std::size_t i = owner.probe_id & mask;
  while (owners_[i].probe_id != 0) i = (i + 1) & mask;
  owners_[i] = owner;
}

bool HealthMonitor::disown(std::uint64_t probe_id, sim::NodeId& node) {
  if (probe_id == 0 || owners_.empty()) return false;
  const std::size_t mask = owners_.size() - 1;
  std::size_t hole = probe_id & mask;
  for (; owners_[hole].probe_id != probe_id; hole = (hole + 1) & mask) {
    if (owners_[hole].probe_id == 0) return false;
  }
  node = owners_[hole].node;
  // Pull back every later cluster member whose home is at or before the
  // hole, so no tombstone is left.
  for (std::size_t j = (hole + 1) & mask; owners_[j].probe_id != 0;
       j = (j + 1) & mask) {
    const std::size_t home = owners_[j].probe_id & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      owners_[hole] = owners_[j];
      hole = j;
    }
  }
  owners_[hole] = Owner{};
  --owned_;
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
