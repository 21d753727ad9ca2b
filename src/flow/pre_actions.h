// Pre-actions: the *stateless* half of packet processing (§2.1).
//
// A rule-table lookup chain produces, for each direction of a flow, a
// preliminary verdict plus rewrite/QoS/statistics recipes. Pre-actions are
// not final for stateful NFs — the final action combines them with the
// session state (e.g. a stateful ACL accepts RX "drop" traffic when the
// session was initiated by local TX). Bidirectional pre-actions are cached
// per flow (the "cached flows" of Fig 1); under Nezha they live on the FE
// and travel to the BE inside RX packets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/flow/direction.h"
#include "src/net/addr.h"

namespace nezha::flow {

enum class Verdict : std::uint8_t { kAccept = 0, kDrop = 1 };

enum class StatsMode : std::uint8_t {
  kNone = 0,
  kPackets = 1,
  kBytes = 2,
  kPacketsAndBytes = 3,
};

/// Where to forward the packet next on the underlay.
struct NextHop {
  net::Ipv4Addr ip;
  net::MacAddr mac;
  bool valid() const { return ip.value() != 0; }
  bool operator==(const NextHop&) const = default;
};

/// Per-direction preliminary action from the rule-table chain.
struct DirPreAction {
  Verdict acl_verdict = Verdict::kAccept;
  // NAT rewrite recipe (applies to the inner header when enabled). The port
  // sits beside the two flags, where it needs no padding.
  bool nat_enabled = false;
  std::uint16_t nat_port = 0;
  net::Ipv4Addr nat_ip;
  // QoS: committed rate; 0 means unlimited.
  std::uint32_t rate_limit_kbps = 0;
  // Flow statistics policy (a *rule-table-involved* state input, §3.2.2).
  StatsMode stats_mode = StatsMode::kNone;
  // Traffic mirroring (advanced feature): when set, the processing node
  // sends a copy of the packet toward mirror_target (a collector).
  bool mirror = false;
  NextHop mirror_target;
  // Underlay destination for this direction (vNIC-server mapping result).
  NextHop next_hop;

  bool operator==(const DirPreAction&) const = default;
};

/// Bidirectional pre-actions cached as one flow entry.
struct PreActions {
  DirPreAction tx;
  DirPreAction rx;
  /// Version of the rule tables that produced this entry; bumped rule
  /// tables invalidate cached flows (§3.2.2).
  std::uint32_t rule_version = 0;

  const DirPreAction& dir(Direction d) const {
    return d == Direction::kTx ? tx : rx;
  }
  DirPreAction& dir(Direction d) { return d == Direction::kTx ? tx : rx; }

  /// Exact carrier-TLV wire size: rule_version (4) + two 36-byte directions.
  static constexpr std::size_t kWireSize = 76;

  /// Carrier-TLV encoding (FE→BE piggyback on RX packets) into a
  /// caller-provided kWireSize buffer — the datapath encode, heap-free.
  void serialize_into(std::span<std::uint8_t> out) const;
  /// Allocating convenience wrapper for cold callers (tests, tools).
  std::vector<std::uint8_t> serialize() const;
  static common::Result<PreActions> parse(
      std::span<const std::uint8_t> bytes);

  bool operator==(const PreActions&) const = default;
};

/// Nominal in-memory footprint of one cached-flow entry's pre-action halves
/// (used by the vSwitch memory model; the paper's session entry totals
/// O(100B) across 5-tuple + VPC + pre-actions + state).
inline constexpr std::size_t kPreActionsBytes = 48;

}  // namespace nezha::flow
