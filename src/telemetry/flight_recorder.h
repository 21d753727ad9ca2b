// Flight recorder: per-node ring buffers of TraceEvents.
//
// Design constraints:
//  * record() on the datapath is allocation-free — every ring reserves its
//    capacity at construction, appends until full, then overwrites the
//    oldest events in place. Reserved pages are committed only as events
//    land, so a node that records little costs little host memory.
//  * The dump is deterministic — events carry a global sequence number
//    assigned at record time, and merged()/dump() order strictly by it, so
//    two runs of the same seed produce byte-identical dumps.
//
// Per-node rings (rather than one global ring) keep a chatty node from
// evicting a quiet node's history — the monitor's dozen probe events
// survive millions of datapath events elsewhere. Events from node ids past
// the constructed range land in a shared spillover ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/telemetry/trace_event.h"

namespace nezha::telemetry {

class FlightRecorder {
 public:
  /// `num_nodes` dedicated rings (+1 spillover) of `events_per_node` each.
  FlightRecorder(std::size_t num_nodes, std::size_t events_per_node);

  /// Stamps the global sequence number and appends to the node's ring,
  /// overwriting the oldest event when full. Allocation-free.
  void record(TraceEvent e) {
    Ring& r = rings_[e.node < num_nodes_ ? e.node : num_nodes_];
    e.seq = next_seq_++;
    if (r.buf.size() < capacity_) {
      r.buf.push_back(e);  // within the reserved capacity
      return;
    }
    r.buf[r.head] = e;
    r.head = r.head + 1 == capacity_ ? 0 : r.head + 1;
    ++r.overwritten;
  }

  std::size_t num_nodes() const { return num_nodes_; }
  /// Events currently retained in node's ring (spillover = num_nodes()).
  std::size_t ring_count(std::size_t node) const;
  /// Events lost to wraparound in node's ring.
  std::uint64_t ring_overwritten(std::size_t node) const;
  /// Total record() calls (retained + overwritten).
  std::uint64_t recorded() const { return next_seq_ - 1; }

  /// All retained events merged across rings, ascending by seq (the global
  /// record order; ties are impossible — seq is unique). Dump-time only.
  std::vector<TraceEvent> merged() const;

  /// Binary dump: header (magic, version, record size, count) followed by
  /// merged() records byte-for-byte. Byte-identical across same-seed runs.
  void dump(std::ostream& os) const;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  // retained events; capacity_ reserved
    std::size_t head = 0;         // oldest event (next overwrite) when full
    std::uint64_t overwritten = 0;
  };

  std::size_t num_nodes_;
  std::size_t capacity_;  // events per ring
  std::vector<Ring> rings_;  // [0, num_nodes_) per node; [num_nodes_] spill
  std::uint64_t next_seq_ = 1;
};

/// Dump header magic: "NZTRACE\0" little-endian.
inline constexpr std::uint64_t kTraceMagic = 0x0045434152545a4eULL;

}  // namespace nezha::telemetry
