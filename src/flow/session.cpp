#include "src/flow/session.h"

#include <cassert>

#include "src/net/bytes.h"

namespace nezha::flow {

void SessionState::observe(Direction dir, net::TcpFlags tcp_flags, bool is_tcp,
                           common::TimePoint now) {
  if (first_dir == FirstDirection::kNone) first_dir = to_first_direction(dir);
  if (is_tcp) fsm.on_packet(dir, tcp_flags);
  last_active = now;
}

void SessionCounters::count(StatsMode mode, Direction dir,
                            std::size_t wire_bytes) {
  if (mode == StatsMode::kPackets || mode == StatsMode::kPacketsAndBytes) {
    (dir == Direction::kTx ? pkts_tx : pkts_rx) += 1;
  }
  if (mode == StatsMode::kBytes || mode == StatsMode::kPacketsAndBytes) {
    (dir == Direction::kTx ? bytes_tx : bytes_rx) += wire_bytes;
  }
}

std::size_t SessionState::used_bytes() const {
  std::size_t n = 0;
  if (first_dir != FirstDirection::kNone) n += 1;  // first-packet direction
  if (fsm.state() != TcpFsmState::kNone) n += 1;   // TCP FSM state
  if (decap_src_ip.value() != 0) n += 4;           // stateful-decap IP
  if (stats_mode != StatsMode::kNone) {
    n += 1;  // policy byte
    if (stats_mode == StatsMode::kPackets || stats_mode == StatsMode::kPacketsAndBytes)
      n += 8;  // packet counters (packed)
    if (stats_mode == StatsMode::kBytes || stats_mode == StatsMode::kPacketsAndBytes)
      n += 8;  // byte counters (packed)
  }
  return n;
}

void SessionState::serialize_snapshot_into(std::span<std::uint8_t> out) const {
  assert(out.size() == kSnapshotWireSize);
  net::FixedWriter w(out);
  w.u8(static_cast<std::uint8_t>(first_dir));
  w.u8(static_cast<std::uint8_t>(fsm.state()));
  w.u8(static_cast<std::uint8_t>(stats_mode));
  w.u32(decap_src_ip.value());
  assert(w.written() == kSnapshotWireSize);
}

std::vector<std::uint8_t> SessionState::serialize_snapshot() const {
  std::vector<std::uint8_t> out(kSnapshotWireSize);
  serialize_snapshot_into(out);
  return out;
}

common::Result<SessionState> SessionState::parse_snapshot(
    std::span<const std::uint8_t> bytes) {
  net::ByteReader r(bytes);
  SessionState s;
  s.first_dir = static_cast<FirstDirection>(r.u8());
  r.u8();  // FSM state is informational in the snapshot; the FE only needs
           // first_dir and the decap IP to finalize actions.
  s.stats_mode = static_cast<StatsMode>(r.u8());
  s.decap_src_ip = net::Ipv4Addr(r.u32());
  if (!r.ok()) return common::make_error("state snapshot: truncated");
  return s;
}

}  // namespace nezha::flow
