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
// Cross-shard packets travel as ShardTokens through preallocated SPSC
// rings, one per (src, dst) shard pair. Producers push during their epoch;
// consumers snapshot ring occupancy while every worker is quiescent at the
// epoch barrier and inject exactly that prefix at the start of the next
// epoch, merging sources in a fixed permutation (drawn once from a
// constant seed) and each source's tokens in production order (seq). Shard
// s is always driven by worker thread s % num_threads, and threads interact
// only through the rings at barriers, so the schedule — and therefore
// every counter and fingerprint — is a pure function of (config, seed,
// shard_count), independent of the thread count and of wall-clock
// interleaving.
//
// Control-plane work that must touch cross-shard state (gateway placement
// publishes, fleet-wide policy pushes, crash failover) registers *fenced
// sections* through ShardedEngine::schedule_fenced: each runs at the first
// epoch barrier at or after its due time, executed by one designated
// worker in (due, seq) order while every other worker is parked at the
// barrier (DESIGN.md §15). Symmetrically, when every shard's next event
// lies beyond the next epoch boundary and all rings are quiet, the engine
// *fast-forwards* — jumping the lockstep clock over the empty epochs
// instead of spinning barriers — without changing a single outcome.
#pragma once

#include <atomic>
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

/// One cross-shard packet handoff. POD-movable; the Packet rides by value.
/// The source shard has reserved every link it owns. On a cross-leaf Clos
/// path `at` is the spine arrival and the destination shard queues the
/// spine→leaf downlink it owns; on any other path `at` is the final
/// arrival. Both shards tell the two apart from the topology.
struct ShardToken {
  net::Packet pkt;
  common::TimePoint at = 0;  // always >= next epoch start
  std::uint64_t seq = 0;     // producer order within one (src, dst) ring
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t bytes = 0;
  std::uint32_t spine = 0;   // cross-leaf Clos: ECMP spine already selected
};

/// Single-producer/single-consumer token ring with a producer-side
/// overflow vector. The ring is preallocated; when it is momentarily full
/// (the consumer only frees slots while draining the previous epoch's
/// prefix) the producer spills to `overflow_`, which the consumer takes
/// wholesale at the quiescent epoch barrier. Tokens carry a producer
/// sequence number, so the consumer restores exact production order by
/// merging the ring prefix and the overflow batch on seq.
class SpscTokenRing {
 public:
  explicit SpscTokenRing(std::size_t capacity);

  /// Setup-time only (vector growth); never used while threads run.
  SpscTokenRing(SpscTokenRing&& o) noexcept
      : buf_(std::move(o.buf_)),
        mask_(o.mask_),
        next_seq_(o.next_seq_),
        overflow_(std::move(o.overflow_)) {
    head_.store(o.head_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    tail_.store(o.tail_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

  // --- producer side (owned by the source shard's worker) ---
  void push(ShardToken tok);

  // --- consumer side (owned by the destination shard's worker) ---
  /// Tokens currently visible to the consumer. Also safe mid-epoch (it is
  /// an atomic snapshot); the engine calls it at quiescent barriers.
  std::size_t pending() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_relaxed));
  }
  const ShardToken& front() const { return buf_[head_raw() & mask_]; }
  ShardToken pop();

  /// Quiescent-only: producer-side spill batch, moved out (ascending seq).
  std::vector<ShardToken> take_overflow() { return std::move(overflow_); }
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  std::uint64_t head_raw() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::vector<ShardToken> buf_;
  std::size_t mask_;
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer cursor
  // Producer-only fields (same cache line as tail_ is fine: SPSC).
  std::uint64_t next_seq_ = 0;
  std::vector<ShardToken> overflow_;
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
  /// the next epoch boundary and all token rings are empty, jump the
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
  /// Hands a token to dst_shard's inbound ring (called by src_shard's
  /// Network while src_shard's thread drives it).
  void export_token(std::uint32_t src_shard, std::uint32_t dst_shard,
                    ShardToken tok);

  /// Deterministic quiesce point for cross-shard control (DESIGN.md §15).
  ///
  /// A fenced section runs at the first epoch barrier whose sim-time is
  /// >= `due` (any due <= now, including 0, means "the next barrier"),
  /// with every worker thread parked, so it may freely read or mutate
  /// state owned by any shard. Pending sections execute in (due, seq)
  /// order. Registrations from a quiescent context (setup code between
  /// run_until calls, or another fence's body) take the next global
  /// sequence immediately; registrations made mid-epoch on a shard's
  /// worker thread are staged per shard and drained at the next barrier in
  /// the fixed merge order — the same recipe that makes token injection a
  /// pure function of (config, seed, shard_count).
  void schedule_fenced(common::TimePoint due, std::function<void()> fn);

  // --- observability (quiescent reads) ---
  std::uint64_t epochs_run() const { return epochs_run_; }
  /// Tokens produced but not yet injected (sitting in rings/overflow).
  /// Together with the networks' exported()/imported() counters this
  /// closes the cross-shard conservation identity:
  ///   sum(exported) - sum(imported) == tokens_pending().
  std::uint64_t tokens_pending() const;
  /// Conservative-lookahead violations: tokens whose due time had already
  /// passed when injected (must stay 0; a nonzero count means the epoch
  /// length exceeded the true minimum cross-shard latency).
  std::uint64_t late_tokens() const;
  /// Per-shard busy wall-clock accumulated inside advance phases; the
  /// balance across shards bounds the achievable parallel speedup.
  std::uint64_t shard_busy_ns(std::uint32_t shard) const {
    return profile_.at(shard).advance_ns;
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
  /// wait in microseconds — feeds the per-shard metrics histogram. The
  /// callback runs on that worker's thread; it must only touch state owned
  /// by that shard (per-shard registries satisfy this).
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
    std::uint64_t snapshot_ns = 0;      // snapshot_inbound phases
    std::uint64_t advance_ns = 0;       // advance phases (== shard_busy_ns)
    std::uint64_t barrier_wait_ns = 0;  // parked at epoch barriers
    std::uint64_t fast_forward_ns = 0;  // clock teleports in jump phases
  };
  const PhaseProfile& phase_profile(std::uint32_t shard) const {
    return profile_.at(shard);
  }

  /// Engine-global profile counters, owned by worker 0 (quiescent reads).
  /// fence_barriers / ff_jumps are event counts (thread- and
  /// run-invariant); fence_wall_ns is wall-clock.
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
  SpscTokenRing& ring(std::uint32_t src, std::uint32_t dst) {
    return rings_[src * shards_.size() + dst];
  }

  /// Phase 1 (all workers quiescent): record how many tokens each inbound
  /// ring holds and take the overflow batches for shard `s`.
  void snapshot_inbound(std::uint32_t s);
  /// Phase 2: inject the snapshotted token prefix in (merge_order, seq)
  /// order, then run the shard's loop to the epoch end.
  void advance_shard(std::uint32_t s, common::TimePoint end);

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
  /// earliest queued fence is due at or before `e`. Read-only; called
  /// by every worker with all shards quiescent (barrier-separated from
  /// the writes it observes).
  bool fence_work_pending(common::TimePoint e) const;
  /// Worker 0, everyone else parked: drain staged registrations in the
  /// fixed merge order, then execute every fence with due <= now in
  /// (due, seq) order, then refresh every shard's next-event cache.
  void run_fences(common::TimePoint now);
  /// Sparse-epoch fast-forward decision at epoch-start `e` (run end `t`):
  /// returns `e` when the next epoch must run normally, else the
  /// epoch-aligned time (> e) to jump the lockstep clock to.
  common::TimePoint fast_forward_target(common::TimePoint e,
                                        common::TimePoint t) const;

  std::vector<Shard> shards_;
  ShardedEngineConfig config_;
  std::vector<SpscTokenRing> rings_;         // [src * K + dst]
  std::vector<std::size_t> snap_;            // per-ring snapshot counts
  std::vector<std::vector<ShardToken>> staged_;  // per-ring overflow batches
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
  // Phase profiler: profile_[s] is written only by shard s's owning
  // worker; the engine-global fence/jump fields only by worker 0 (or
  // quiescent code).
  std::vector<PhaseProfile> profile_;
  std::uint64_t fence_ns_ = 0;
  std::uint64_t fence_barriers_ = 0;
  std::uint64_t ff_jumps_ = 0;

  // Fence state. fences_ is a min-heap on (due, seq); only worker 0 (or
  // quiescent setup code) touches it. fence_staged_[s] is written only by
  // shard s's worker mid-epoch and drained by worker 0 at barriers.
  std::vector<Fence> fences_;
  std::vector<std::vector<Fence>> fence_staged_;
  std::uint64_t fence_seq_ = 0;
  std::uint64_t fences_run_ = 0;
  std::uint64_t epochs_skipped_ = 0;
  /// Per-shard cache of EventLoop::next_event_at(), refreshed by the
  /// owning worker after each advance (and by worker 0 after fences).
  std::vector<common::TimePoint> next_event_;
  /// Deterministic in-flight accounting for the fast-forward decision,
  /// indexed by *source* shard. Every token present in the rings at an
  /// epoch boundary is injected during the following epoch, so "tokens in
  /// flight from shard s" at a barrier is exactly "exports by s since its
  /// last advance began". xfer_epoch_[s] counts exports during the current
  /// phase (written only by the thread exclusively driving s: its owner
  /// mid-advance, worker 0 inside fences, or quiescent setup code);
  /// xfer_inflight_[s] is the barrier-published total still sitting in
  /// s's outbound rings. fast_forward_target reads only xfer_inflight_ —
  /// never live ring state, which snapshot_inbound mutates concurrently.
  std::vector<std::uint64_t> xfer_epoch_;
  std::vector<std::uint64_t> xfer_inflight_;
  std::vector<std::function<void(double)>> wait_observers_;
  std::function<void(const FenceTracePoint&)> trace_;
};

}  // namespace nezha::sim
