// vNIC-Server mapping table: the cloud's "global routing table" (§4.2.1).
//
// Maps a vNIC (identified by its overlay IP within a VPC) to the underlay
// location (server IP/MAC) that currently hosts its packet processing. The
// authoritative copy lives at the gateway; vSwitches learn entries on demand
// and refresh them every learning interval (200ms in the paper). Nezha's
// offload re-points a hot vNIC's entry from its BE server to its FE set.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/flow/pre_actions.h"
#include "src/net/addr.h"

namespace nezha::tables {

using VnicId = std::uint64_t;

/// An underlay location (one server's SmartNIC).
struct Location {
  net::Ipv4Addr ip;
  net::MacAddr mac;
  bool operator==(const Location&) const = default;
};

/// A vNIC's current placement: either a single location (normal case) or a
/// set of FE locations (offloaded vNIC; the sender hashes flows across them).
struct VnicPlacement {
  std::vector<Location> locations;
  std::uint64_t version = 0;

  bool offloaded() const { return locations.size() > 1; }
  bool operator==(const VnicPlacement&) const = default;
};

/// Identity of a vNIC on the overlay: (VPC, overlay IP).
struct OverlayAddr {
  std::uint32_t vpc_id = 0;
  net::Ipv4Addr ip;
  bool operator==(const OverlayAddr&) const = default;
};

struct OverlayAddrHash {
  std::size_t operator()(const OverlayAddr& a) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(a.vpc_id) << 32) | a.ip.value());
  }
};

class VnicServerMap {
 public:
  /// Registers/updates a vNIC's overlay address and placement; bumps the
  /// entry version so learners can detect staleness.
  void set_placement(OverlayAddr addr, VnicId vnic,
                     std::vector<Location> locations);

  struct Entry {
    VnicId vnic = 0;
    VnicPlacement placement;
  };

  const Entry* lookup(const OverlayAddr& addr) const;
  bool erase(const OverlayAddr& addr);

 private:
  std::unordered_map<OverlayAddr, Entry, OverlayAddrHash> entries_;
  std::uint64_t next_version_ = 1;
};

}  // namespace nezha::tables
