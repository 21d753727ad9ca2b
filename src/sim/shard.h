// Sharded simulation engine (DESIGN.md §13): conservative parallel
// discrete-event execution in the style of FireSim's switch model.
//
// The fleet is partitioned per rack into shards; each shard owns an
// EventLoop, a Network and the vSwitches of its racks. Shards advance in
// lockstep epochs no longer than the minimum cross-rack fabric latency, so
// a packet handed off to another shard during epoch E can never be due
// before epoch E+1 begins — cross-shard influence always arrives with at
// least one full epoch of lookahead (the "conservative" condition of
// Chandy-Misra-style parallel simulation).
//
// Cross-shard packets travel as ShardTokens through plain per-(src, dst)
// outboxes, two per pair, picked by epoch parity: a worker mid-epoch
// appends to the fill side, and quiescent code (fence bodies, setup code
// between windows) to the drain side. Each consumer injects its drain
// sides at the start of its next advance — sources in a fixed permutation
// (drawn once from a constant seed), each source's tokens in push order —
// and clears them. An epoch is "inject, advance, arrive" at one barrier,
// whose completion step, run once while every worker is parked, flips the
// parity and does all between-epoch work. Shard s is always driven by
// worker thread s % num_threads, and threads interact only through the
// outboxes across that barrier, so the schedule — and therefore every
// counter and fingerprint — is a pure function of (config, seed,
// shard_count), independent of the thread count and of wall-clock
// interleaving.
//
// Control-plane work that must touch cross-shard state (gateway placement
// publishes, fleet-wide policy pushes, crash failover) registers *fenced
// sections* through ShardedEngine::schedule_fenced: each runs in the
// completion step of the first epoch barrier at or after its due time, in
// (due, seq) order, while every worker is parked (DESIGN.md §15).
// Symmetrically, when every shard's next event lies beyond the next epoch
// boundary and every outbox is empty, the same step *fast-forwards* —
// jumping the lockstep clock over the empty epochs instead of running
// them — without changing a single outcome.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/time.h"
#include "src/net/five_tuple.h"
#include "src/net/packet.h"
#include "src/sim/node.h"

namespace nezha::sim {

class EventLoop;
class Network;

/// One cross-shard packet handoff. The Packet rides by value.
/// The source shard has reserved every link it owns. On a cross-leaf Clos
/// path `at` is the spine arrival and the destination shard queues the
/// spine→leaf downlink it owns; on any other path `at` is the final
/// arrival. Both shards tell the two apart from the topology. An outbox
/// keeps its tokens in push order, so a token needs no sequence number.
struct ShardToken {
  net::Packet pkt;
  common::TimePoint at = 0;  // always >= next epoch start
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 0;
  std::uint32_t spine = 0;   // cross-leaf Clos: ECMP spine already selected
};

/// Maps racks (ToR/leaf index) onto contiguous shard blocks. Rack-aligned
/// blocks guarantee same-rack traffic is always intra-shard, which is what
/// lets the epoch length be the *cross-rack* minimum latency.
struct ShardMap {
  std::uint32_t shards = 1;
  std::uint32_t racks = 1;

  static ShardMap make(std::uint32_t racks, std::uint32_t shards) {
    ShardMap m;
    m.racks = racks == 0 ? 1 : racks;
    m.shards = shards == 0 ? 1 : (shards > m.racks ? m.racks : shards);
    return m;
  }
  std::uint32_t shard_of_rack(std::uint32_t rack) const {
    if (rack >= racks) return shards - 1;
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(rack) * shards) / racks);
  }
};

struct ShardedEngineConfig {
  /// Lockstep epoch length; must be <= the minimum latency of any
  /// cross-shard path (Topology::min_cross_rack_latency()).
  common::Duration epoch = common::microseconds(8);
  /// Sparse-epoch fast-forward: when every shard's next event lies beyond
  /// the next epoch boundary and every outbox is empty, jump the
  /// lockstep clock to the boundary just before the earliest event (or
  /// fence barrier) instead of running empty epochs. Pure wall-clock
  /// optimization — outcomes are bit-identical either way.
  bool fast_forward = true;
};

class ShardedEngine {
 public:
  struct Shard {
    EventLoop* loop = nullptr;
    Network* net = nullptr;
  };

  /// Where a node that is not local to the asking shard lives.
  struct Remote {
    std::uint32_t shard = 0;
    NodeId node = 0;
  };

  ShardedEngine(std::vector<Shard> shards, ShardedEngineConfig config);

  /// Registers a node's underlay IP, once per IP, so other shards can route
  /// to it.
  void map_ip(net::Ipv4Addr ip, std::uint32_t shard, NodeId node);

  /// Advances every shard loop to `t` in lockstep epochs using `threads`
  /// workers (clamped to [1, shard_count]). Worker threads only exist for
  /// the duration of the call; on return all loops are quiescent at `t`
  /// and every fenced section due <= t has executed. The result is
  /// identical for every thread count.
  void run_until(common::TimePoint t, int threads);

  // --- the Networks' view: cross-shard routing ---
  /// Null when the IP is unknown fleet-wide (genuine no-route).
  const Remote* lookup_remote(net::Ipv4Addr ip) const;
  /// Appends a token to the (src_shard, dst_shard) outbox (called by
  /// src_shard's Network while src_shard's thread drives it, or from
  /// quiescent code).
  void export_token(std::uint32_t src_shard, std::uint32_t dst_shard,
                    ShardToken tok);

  /// Deterministic quiesce point for cross-shard control (DESIGN.md §15).
  ///
  /// A fenced section runs at the first epoch barrier whose sim-time is
  /// >= `due` (any due <= now, including 0, means "the next barrier"), in
  /// that barrier's completion step with every worker thread parked, so it
  /// may freely read or mutate state owned by any shard. Pending sections
  /// execute in (due, seq) order. Registrations from a quiescent context
  /// (setup code between run_until calls, or another fence's body) take
  /// the next global sequence immediately; registrations made mid-epoch
  /// on a shard's worker thread are staged per shard and drained at the
  /// next barrier in the fixed merge order — the same recipe that makes
  /// token injection a pure function of (config, seed, shard_count).
  /// `fn` must not throw: the completion step is noexcept, so an exception
  /// there ends the program.
  void schedule_fenced(common::TimePoint due, std::function<void()> fn);

  // --- observability (quiescent reads) ---
  std::uint64_t epochs_run() const { return epochs_run_; }
  /// Tokens produced but not yet injected (sitting in outboxes).
  /// Together with the networks' exported()/imported() counters this
  /// closes the cross-shard conservation identity:
  ///   sum(exported) - sum(imported) == tokens_pending().
  std::uint64_t tokens_pending() const;
  /// Conservative-lookahead violations: tokens whose due time had already
  /// passed when injected (must stay 0; a nonzero count means the epoch
  /// length exceeded the true minimum cross-shard latency).
  std::uint64_t late_tokens() const;
  /// Per-shard busy wall-clock (injecting its inbound tokens and running
  /// its loop); the balance across shards bounds the achievable parallel
  /// speedup.
  std::uint64_t shard_busy_ns(std::uint32_t shard) const {
    return profile_.at(shard).snapshot_ns + profile_.at(shard).advance_ns;
  }
  /// Epochs elided by sparse-epoch fast-forward (would have run empty).
  std::uint64_t epochs_skipped() const { return epochs_skipped_; }
  /// Fenced sections executed so far (across all run_until calls).
  std::uint64_t fenced_sections_run() const { return fences_run_; }
  /// Fenced sections registered but not yet executed. Between run_until
  /// calls this counts exactly the fences whose due time lies beyond the
  /// last run's end — a nonzero value after a "final" window is the
  /// signature of a stuck fence.
  std::uint64_t fences_queued() const { return fences_.size(); }

  /// Called by shard `shard`'s owning worker with each epoch's barrier
  /// wait (as PhaseProfile::barrier_wait_ns counts it) in microseconds —
  /// feeds the per-shard metrics histogram. The callback runs on that
  /// worker's thread; it must only touch state owned by that shard
  /// (per-shard registries satisfy this).
  void set_barrier_wait_observer(std::uint32_t shard,
                                 std::function<void(double)> fn) {
    wait_observers_.at(shard) = std::move(fn);
  }

  /// Per-shard wall-clock attribution of run_until time to epoch phases
  /// (DESIGN.md §16). The *_ns fields are wall-clock — never part of a
  /// determinism gate — while `epochs` (barrier crossings) is a pure
  /// function of (config, seed, shard_count) and is gated for thread- and
  /// run-invariance.
  struct PhaseProfile {
    std::uint64_t epochs = 0;           // barrier crossings measured
    std::uint64_t snapshot_ns = 0;      // injecting the inbound outboxes
    std::uint64_t advance_ns = 0;       // running the loop to the epoch end
    // Parked at epoch barriers, less the completion step's fences and
    // jumps, which fence_wall_ns and fast_forward_ns time.
    std::uint64_t barrier_wait_ns = 0;
    std::uint64_t fast_forward_ns = 0;  // teleporting this shard's clock
  };
  const PhaseProfile& phase_profile(std::uint32_t shard) const {
    return profile_.at(shard);
  }

  /// Engine-global profile counters, written only in barrier completion
  /// steps and quiescent code. fence_barriers / ff_jumps are event counts
  /// (thread- and run-invariant); fence_wall_ns is wall-clock.
  struct EngineProfile {
    std::uint64_t fence_wall_ns = 0;    // inside run_fences quiesce points
    std::uint64_t fence_barriers = 0;   // quiesce points taken
    std::uint64_t ff_jumps = 0;         // fast-forward teleports taken
  };
  EngineProfile engine_profile() const {
    return EngineProfile{fence_ns_, fence_barriers_, ff_jumps_};
  }

  /// Fence lifecycle tap for the flight recorder: fired once when a fence
  /// receives its global sequence number (executed=false) and once when it
  /// runs (executed=true). Always invoked in a quiescent context.
  struct FenceTracePoint {
    bool executed = false;
    common::TimePoint at = 0;   // sim-time of the tap
    common::TimePoint due = 0;  // requested due time
    std::uint64_t seq = 0;      // global deterministic sequence
  };
  void set_fence_trace(std::function<void(const FenceTracePoint&)> fn) {
    trace_ = std::move(fn);
  }

 private:
  /// Both sides of one (src, dst) pair. Index [parity_] fills during an
  /// advance; [parity_ ^ 1] drains at the start of the next.
  struct Outbox {
    std::vector<ShardToken> side[2];
  };
  /// Shard s's worker, at the start of its advance: injects every drain
  /// side bound for s — sources in merge_order_, each in push order — and
  /// clears them.
  void inject_inbound(std::uint32_t s);

  struct Fence {
    common::TimePoint due = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };
  /// fences_'s heap order: true when `a` runs after `b`, so the earliest
  /// (due, seq) sits at the front.
  static bool fence_after(const Fence& a, const Fence& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }
  /// True when a barrier at epoch-start `e` must stop for fence work:
  /// either a staged registration waits for its sequence number, or the
  /// earliest queued fence is due at or before `e`.
  bool fence_work_pending(common::TimePoint e) const;
  /// Every worker parked: drain staged registrations in the fixed merge
  /// order, then execute every fence with due <= now in (due, seq) order.
  void run_fences(common::TimePoint now);
  /// Sparse-epoch fast-forward decision at epoch-start `e` (run end `t`):
  /// returns `e` when the next epoch must run normally, else the
  /// epoch-aligned time (> e) to jump the lockstep clock to.
  common::TimePoint fast_forward_target(common::TimePoint e,
                                        common::TimePoint t) const;
  /// The work between two epochs, every worker parked: runs the fences due
  /// by `e`, then fast-forwards over empty epochs, repeating both until an
  /// epoch must run at the returned time (or the run ends at `t`). Sets
  /// `spent_ns` to the wall-clock those fences and jumps took.
  common::TimePoint between_epochs(common::TimePoint e, common::TimePoint t,
                                   std::uint64_t& spent_ns);

  std::vector<Shard> shards_;
  ShardedEngineConfig config_;
  std::vector<Outbox> outboxes_;             // [src * K + dst]
  std::uint32_t parity_ = 0;                 // flipped at every epoch barrier
  std::vector<std::uint32_t> merge_order_;   // fixed source permutation
  // Every node's underlay IP, probed on each cross-shard send and never
  // iterated. The cell is picked from the hash's low bits, and IPs differ
  // in their high bits too, hence the 64-bit mixer.
  struct IpCell {
    std::uint32_t ip = 0;
    bool held = false;
    Remote remote;
  };
  struct IpTraits {
    static bool empty(const IpCell& cell) { return !cell.held; }
    static std::uint64_t hash(const IpCell& cell) {
      return net::flow_hash_mix64(cell.ip);
    }
  };
  common::FlatTable<IpCell, IpTraits> ip_map_;
  std::uint64_t epochs_run_ = 0;
  std::vector<std::uint64_t> late_;          // per-shard, summed on read
  // Phase profiler: profile_[s] is written by shard s's owning worker
  // and, for fast_forward_ns, by completion steps; the engine-global
  // fence/jump fields only by completion steps or quiescent code.
  std::vector<PhaseProfile> profile_;
  std::uint64_t fence_ns_ = 0;
  std::uint64_t fence_barriers_ = 0;
  std::uint64_t ff_jumps_ = 0;

  // Fence state. fences_ is a min-heap on (due, seq); only completion
  // steps and quiescent code touch it. fence_staged_[s] is written only by
  // shard s's worker mid-epoch and drained in completion steps.
  std::vector<Fence> fences_;
  std::vector<std::vector<Fence>> fence_staged_;
  std::uint64_t fence_seq_ = 0;
  std::uint64_t fences_run_ = 0;
  std::uint64_t epochs_skipped_ = 0;
  /// Per-shard cache of EventLoop::next_event_at(), read while hot: by
  /// the owning worker after each advance, and after fences and setup code
  /// by whoever runs them.
  std::vector<common::TimePoint> next_event_;
  std::vector<std::function<void(double)>> wait_observers_;
  std::function<void(const FenceTracePoint&)> trace_;
};

}  // namespace nezha::sim
