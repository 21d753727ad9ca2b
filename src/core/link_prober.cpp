#include "src/core/link_prober.h"

namespace nezha::core {

LinkProber::LinkProber(sim::EventLoop& loop, sim::Network& network,
                       LinkProberConfig config)
    : loop_(loop), network_(network), config_(config) {}

void LinkProber::hook_be(vswitch::VSwitch* be) {
  if (hooked_[be->id()]) return;
  hooked_[be->id()] = true;
  be->set_link_probe_reply_handler([this](const net::Packet& reply) {
    auto it = probe_owner_.find(reply.id);
    if (it == probe_owner_.end()) return;
    auto pit = paths_.find(it->second);
    probe_owner_.erase(it);
    if (pit == paths_.end()) return;
    if (pit->second.outstanding == reply.id) {
      pit->second.reply_seen = true;
      pit->second.misses = 0;
    }
  });
}

void LinkProber::watch(tables::VnicId vnic, vswitch::VSwitch* be,
                       sim::NodeId fe_node, net::Ipv4Addr fe_ip) {
  hook_be(be);
  paths_[PathKey{vnic, fe_node}] = Path{be, fe_ip, 0, 0, false, false};
}

void LinkProber::start() {
  if (started_) return;
  started_ = true;
  loop_.schedule_periodic(config_.probe_interval, [this]() { probe_all(); });
}

void LinkProber::probe_all() {
  for (auto& [key, path] : paths_) {
    if (path.dead) continue;
    const std::uint64_t probe_id = next_probe_id_++;
    // The probe travels from the BE's NIC port, so a partitioned BE↔FE
    // path drops it even though both nodes are up.
    net::FiveTuple ft{path.be->underlay_ip(), path.fe_ip,
                      vswitch::kLinkProbeReplyPort,
                      vswitch::kHealthProbePort, net::IpProto::kUdp};
    net::Packet probe = net::make_udp_packet(ft, 0, 0);
    probe.id = probe_id;
    path.outstanding = probe_id;
    path.reply_seen = false;
    probe_owner_[probe_id] = key;
    ++probes_sent_;
    network_.send(path.be->id(), path.fe_ip, std::move(probe));

    const PathKey k = key;
    loop_.schedule_after(config_.probe_timeout, [this, k, probe_id]() {
      auto it = paths_.find(k);
      if (it == paths_.end()) return;
      Path& p = it->second;
      if (p.outstanding != probe_id || p.reply_seen || p.dead) return;
      probe_owner_.erase(probe_id);
      if (++p.misses < config_.miss_threshold) return;
      p.dead = true;
      ++failures_;
      if (on_failure_) on_failure_(k.vnic, k.fe);
    });
  }
}

}  // namespace nezha::core
