// Centralized FE crash monitoring (§4.4, Appendix C).
//
// The monitor ping-polls every vSwitch that hosts FEs. Probes carry a
// specific destination port that the SmartNICs flow-direct straight to the
// vSwitch VF, so the answer reflects vSwitch health rather than the other
// hypervisors sharing the NIC. After `miss_threshold` consecutive unanswered
// probes the target is declared crashed and the failover callback fires —
// unless the widespread-failure guard trips (§C.2): when more than the
// configured fraction of targets look dead at once, automatic removal is
// suspended (production experience says that pattern is usually a monitoring
// bug, handled by humans).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/common/flat_table.h"
#include "src/common/time.h"
#include "src/sim/network.h"
#include "src/sim/node.h"

namespace nezha::telemetry {
class Hub;
}

namespace nezha::core {

struct MonitorConfig {
  common::Duration probe_interval = common::milliseconds(500);
  common::Duration probe_timeout = common::milliseconds(300);
  int miss_threshold = 3;
};

class HealthMonitor : public sim::Node {
 public:
  HealthMonitor(sim::NodeId id, net::Ipv4Addr underlay_ip,
                sim::EventLoop& loop, sim::Network& network,
                MonitorConfig config = {});

  using CrashFn = std::function<void(sim::NodeId)>;
  void set_crash_callback(CrashFn fn) { on_crash_ = std::move(fn); }

  /// Telemetry hook (null = off): probe sends/replies and crash
  /// declarations/suppressions go to the flight recorder.
  void set_telemetry(telemetry::Hub* hub) { telemetry_ = hub; }

  /// Starts probing a vSwitch.
  void watch(sim::NodeId node, net::Ipv4Addr ip);

  void start();

  void receive(net::Packet pkt) override;

  // --- stats ---
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t replies_received() const { return replies_; }
  std::uint64_t crashes_declared() const { return crashes_; }
  std::uint64_t declarations_suppressed() const { return suppressed_; }

 private:
  struct Target {
    net::Ipv4Addr ip;
    int consecutive_misses = 0;
    std::uint64_t outstanding_probe = 0;  // probe id awaiting a reply
    /// Probe timeouts scheduled and not yet fired. They fire in send order
    /// (every probe waits probe_timeout), so only the last of them can
    /// find its probe still outstanding.
    std::uint32_t timeouts_pending = 0;
    bool reply_seen = false;
    bool declared_dead = false;
  };

  /// A probe a reply may still answer, held inline in a common::FlatTable.
  /// Probe ids start at 1, so id 0 marks an empty cell. Ids are sequential
  /// and hash to themselves, so a round's probes take adjacent cells.
  struct Owner {
    std::uint64_t probe_id = 0;
    sim::NodeId node = 0;
  };
  struct OwnerTraits {
    static bool empty(const Owner& o) { return o.probe_id == 0; }
    static std::uint64_t hash(const Owner& o) { return o.probe_id; }
  };

  void probe_all();
  void send_probe(sim::NodeId node, Target& target);
  void check_probe(sim::NodeId node);
  static void check_probe_thunk(void* self, std::uint64_t node) {
    static_cast<HealthMonitor*>(self)->check_probe(
        static_cast<sim::NodeId>(node));
  }
  std::size_t dead_count() const;

  /// Drops the probe's owner and returns true with its node in `node`, or
  /// returns false when no owner is left.
  bool disown(std::uint64_t probe_id, sim::NodeId& node);

  sim::EventLoop& loop_;
  sim::Network& network_;
  MonitorConfig config_;
  std::unordered_map<sim::NodeId, Target> targets_;
  /// Once it has held a round's probes, a round allocates nothing.
  common::FlatTable<Owner, OwnerTraits> owners_;
  CrashFn on_crash_;
  telemetry::Hub* telemetry_ = nullptr;
  std::uint64_t next_probe_id_ = 1;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t suppressed_ = 0;
  bool started_ = false;
};

}  // namespace nezha::core
