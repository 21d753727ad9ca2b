// Simulation node interface: anything that terminates underlay packets —
// a server's SmartNIC vSwitch, a VM host stub, the gateway, the monitor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "src/net/addr.h"
#include "src/net/packet.h"

namespace nezha::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

class Node {
 public:
  Node(NodeId id, net::Ipv4Addr underlay_ip, net::MacAddr mac)
      : id_(id), underlay_ip_(underlay_ip), mac_(mac) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  net::Ipv4Addr underlay_ip() const { return underlay_ip_; }
  net::MacAddr mac() const { return mac_; }

  /// Delivers a packet that arrived on this node's NIC port.
  virtual void receive(net::Packet pkt) = 0;

  /// Delivers a burst of packets that arrived within one RX window (burst
  /// delivery mode, Network::rx_burst_window). The packets are in arrival
  /// order; the default processes them one by one, so results match
  /// per-packet delivery exactly. Overrides may software-prefetch lookup
  /// structures across the burst before processing.
  virtual void receive_burst(net::Packet* pkts, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) receive(std::move(pkts[i]));
  }

 private:
  NodeId id_;
  net::Ipv4Addr underlay_ip_;
  net::MacAddr mac_;
};

}  // namespace nezha::sim
