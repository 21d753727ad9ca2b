// Session state: the *stateful* half of packet processing, kept in exactly
// one local copy at the vNIC backend under Nezha (§3.1).
//
// A session covers both directions of a flow (bidirectional flows + state in
// a single entry, §2.1). The fixed 64-byte allocation mirrors the paper's
// production layout; used_bytes() reports the semantically meaningful size,
// which Fig 15 shows averages only 5–8B — the motivation for the
// variable-length-state extension (§7.1).
//
// The simulator applies that idea to its own host memory: SessionState holds
// only what every session uses (24 B). The statistics counters a policy
// keeps (SessionCounters) live in the owning SessionTable's side storage,
// allocated only once some entry is counted; used_bytes() still charges
// them whenever a policy is active, so Fig 15 does not change.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/common/time.h"
#include "src/flow/direction.h"
#include "src/flow/pre_actions.h"
#include "src/flow/tcp_fsm.h"
#include "src/net/addr.h"
#include "src/net/five_tuple.h"

namespace nezha::flow {

/// Direction of the session's first packet — the core stateful-ACL input.
enum class FirstDirection : std::uint8_t { kNone = 0, kTx = 1, kRx = 2 };

inline FirstDirection to_first_direction(Direction d) {
  return d == Direction::kTx ? FirstDirection::kTx : FirstDirection::kRx;
}

/// Fixed per-session allocation in the production session table (§7.1).
inline constexpr std::size_t kStateAllocBytes = 64;

struct SessionState {
  FirstDirection first_dir = FirstDirection::kNone;
  TcpFsm fsm;
  /// Stateful decap (§5.2): overlay source IP recorded from the first RX
  /// packet so TX responses can be re-encapsulated toward the LB.
  net::Ipv4Addr decap_src_ip;
  /// Flow-statistics policy currently applied (a rule-table-involved state;
  /// updated via notify packets under Nezha, §3.2.2). The counters it keeps
  /// are SessionCounters, held by the owning table.
  StatsMode stats_mode = StatsMode::kNone;
  common::TimePoint last_active = 0;

  bool initialized() const { return first_dir != FirstDirection::kNone; }

  /// Records a packet: sets first_dir on the first packet, advances the TCP
  /// FSM, refreshes the aging timestamp. Counting under the statistics
  /// policy is SessionTable::observe's part.
  void observe(Direction dir, net::TcpFlags tcp_flags, bool is_tcp,
               common::TimePoint now);

  /// Semantically used bytes (Fig 15): first_dir+fsm always, decap IP only
  /// when set, statistics counters only when a stats policy is active.
  std::size_t used_bytes() const;

  /// Exact snapshot wire size: first_dir, fsm state, stats mode, decap IP.
  static constexpr std::size_t kSnapshotWireSize = 7;

  /// Compact snapshot carried BE→FE in TX packets (kStateSnapshot TLV),
  /// encoded into a caller-provided kSnapshotWireSize buffer.
  void serialize_snapshot_into(std::span<std::uint8_t> out) const;
  /// Allocating convenience wrapper for cold callers.
  std::vector<std::uint8_t> serialize_snapshot() const;
  static common::Result<SessionState> parse_snapshot(
      std::span<const std::uint8_t> bytes);
};

static_assert(sizeof(SessionState) == 24);

/// Per-session statistics under a StatsMode policy.
struct SessionCounters {
  std::uint64_t pkts_tx = 0;
  std::uint64_t pkts_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;

  /// Counts one packet of `wire_bytes` in direction `dir` under `mode`.
  void count(StatsMode mode, Direction dir, std::size_t wire_bytes);
  bool operator==(const SessionCounters&) const = default;
};

/// Session-table key: tenant + canonical (direction-insensitive) 5-tuple.
struct SessionKey {
  std::uint32_t vpc_id = 0;
  net::FiveTuple canonical_ft;

  static SessionKey from_packet(std::uint32_t vpc, const net::FiveTuple& ft) {
    return SessionKey{vpc, ft.canonical()};
  }
  bool operator==(const SessionKey&) const = default;
};

/// Nominal footprint of a session-table key (5-tuple + VPC ID).
inline constexpr std::size_t kSessionKeyBytes = 16;

struct SessionKeyHash {
  std::size_t operator()(const SessionKey& k) const noexcept {
    return static_cast<std::size_t>(
        net::flow_hash(k.canonical_ft, 0x9e3779b9u ^ k.vpc_id));
  }
};

}  // namespace nezha::flow
