// FE-BE mutual link probing (§C.1).
//
// The centralized monitor only establishes that a vSwitch is alive; it says
// nothing about the specific BE↔FE path. Each BE therefore pings its FEs
// directly (at a much lower frequency than the central monitor — complete
// inter-server disconnection is rare thanks to fabric fast-failover), and a
// persistent probe failure removes that FE from this vNIC's pool even
// though the FE looks healthy from the outside.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/common/time.h"
#include "src/sim/network.h"
#include "src/vswitch/vswitch.h"

namespace nezha::core {

struct LinkProberConfig {
  common::Duration probe_interval = common::seconds(2);
  common::Duration probe_timeout = common::milliseconds(500);
  int miss_threshold = 2;
};

class LinkProber {
 public:
  LinkProber(sim::EventLoop& loop, sim::Network& network,
             LinkProberConfig config = {});

  /// Called when the path between a BE and one of its FEs is declared dead:
  /// (vnic, fe_node).
  using LinkFailureFn = std::function<void(tables::VnicId, sim::NodeId)>;
  void set_failure_callback(LinkFailureFn fn) { on_failure_ = std::move(fn); }

  /// Starts probing the path between `be` and FE `fe` for `vnic`.
  /// Registers the reply handler on the BE vSwitch.
  void watch(tables::VnicId vnic, vswitch::VSwitch* be, sim::NodeId fe_node,
             net::Ipv4Addr fe_ip);

  void start();

  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t failures_declared() const { return failures_; }

 private:
  struct PathKey {
    tables::VnicId vnic;
    sim::NodeId fe;
    bool operator==(const PathKey&) const = default;
  };
  struct PathKeyHash {
    std::size_t operator()(const PathKey& k) const noexcept {
      return std::hash<std::uint64_t>{}((k.vnic << 20) ^ k.fe);
    }
  };
  struct Path {
    vswitch::VSwitch* be = nullptr;
    net::Ipv4Addr fe_ip;
    int misses = 0;
    std::uint64_t outstanding = 0;
    bool reply_seen = false;
    bool dead = false;
  };

  void probe_all();
  void hook_be(vswitch::VSwitch* be);

  sim::EventLoop& loop_;
  sim::Network& network_;
  LinkProberConfig config_;
  std::unordered_map<PathKey, Path, PathKeyHash> paths_;
  std::unordered_map<std::uint64_t, PathKey> probe_owner_;
  std::unordered_map<sim::NodeId, bool> hooked_;
  LinkFailureFn on_failure_;
  std::uint64_t next_probe_id_ = 1ull << 32;  // disjoint from monitor ids
  std::uint64_t probes_sent_ = 0;
  std::uint64_t failures_ = 0;
  bool started_ = false;
};

}  // namespace nezha::core
