// Session table / flow cache.
//
// One class serves three deployment shapes (memory-accounted differently):
//  * traditional vSwitch: entries hold cached pre-actions AND state;
//  * Nezha BE:            entries hold state only (tables are remote);
//  * Nezha FE flow cache: entries hold pre-actions only (stateless).
//
// Memory accounting mirrors §2.2.2: key ≈ 16B (5-tuple + VPC), pre-actions
// ≈ 48B, state 64B fixed allocation — O(100B) per full entry. A byte
// capacity bounds the table; insertion fails when full, which is exactly the
// #concurrent-flows bottleneck. That is the *modeled* footprint; the host
// bytes this simulator spends per session are a separate matter (below).
//
// Storage: entries live in fixed-size slab chunks (pointers returned by
// find/find_or_create stay valid until the entry is erased), indexed by an
// open-addressing probe table over a precomputed 64-bit flow hash — no
// per-node allocation or pointer chasing on the lookup hot path. Nothing is
// allocated until the first insert, so an empty table (most FE caches of a
// large fleet) costs only its object.
//
// Pre-actions are interned: an entry holds a 4-byte handle into a per-table
// pool of distinct values with reference counts. The flows of one vNIC
// mostly cache the same value (the repo benchmark's workloads hold at least
// 37 live handles per distinct value), so a shared value costs each session
// only its handle. A value unique to one flow (a per-tuple NAT endpoint)
// costs about what an inline copy would: the pooled value plus its index
// cell. Read and write them through pre_actions() / set_pre_actions() /
// clear_pre_actions(); erase, aging, clear() and invalidate_pre_actions()
// release the handles they drop.
//
// Aging: a lazy TTL wheel. Every entry is queued in the bucket of its
// earliest *possible* deadline (TTLs are FSM-dependent, so that is
// last_active + min TTL at creation); age_out drains only buckets at or
// before `now`, recomputes each visited entry's exact deadline, and
// re-queues survivors at that deadline's bucket. Evictions are therefore
// exact while a sweep touches only expired candidates, not the whole table.
// External code that mutates an entry's state directly should call touch()
// afterwards so a TTL that *shrank* (e.g. FIN/RST → closed) re-queues the
// entry earlier; refreshes that extend the deadline need no notification.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/flow/pre_actions.h"
#include "src/flow/session.h"

namespace nezha::flow {

class SessionTable;

/// Hot fields first: the pre-action handle, the slot and the state (with
/// last_active ahead of its counters) lead, so a lookup or an aging visit
/// touches the front of the entry; the QoS bucket goes last.
struct SessionEntry {
 private:
  friend class SessionTable;
  /// Handle of the cached pre-actions in the owning table's pool; 0 = none.
  /// The table reads and writes it, counting references.
  std::uint32_t pre_actions_id = 0;

 public:
  /// Slab slot backing this entry; maintained by SessionTable (lets
  /// touch() reach the aging bookkeeping in O(1)).
  std::uint32_t table_slot = 0;
  SessionState state;
  /// Token bucket for the QoS pre-action (enforcement metadata, not session
  /// state — it never needs to leave the enforcing node).
  double qos_tokens_bits = 0;
  common::TimePoint qos_refilled_at = 0;

  /// Charges `bits` against the rate limit; returns false (drop) when the
  /// bucket is empty. `kbps` == 0 means unlimited. Burst: one second's
  /// worth of tokens.
  bool qos_admit(std::uint32_t kbps, std::size_t bits, common::TimePoint now);
};

struct SessionTableConfig {
  bool store_pre_actions = true;
  bool store_state = true;
  /// Byte budget; 0 means unlimited (useful in unit tests).
  std::size_t capacity_bytes = 0;
  /// Aging TTLs (§7.3: embryonic/SYN sessions age fast; the paper cites an
  /// 8s average lifetime for normal connections).
  common::Duration established_ttl = common::seconds(8);
  common::Duration embryonic_ttl = common::seconds(1);
  common::Duration closed_ttl = common::milliseconds(100);
};

class SessionTable {
 public:
  explicit SessionTable(SessionTableConfig config = {});

  /// Per-entry footprint under this table's configuration.
  std::size_t entry_bytes() const { return entry_bytes_; }

  std::size_t size() const { return size_; }
  std::size_t memory_bytes() const { return size_ * entry_bytes_; }
  std::size_t capacity_bytes() const { return config_.capacity_bytes; }
  bool full() const {
    return config_.capacity_bytes != 0 &&
           memory_bytes() + entry_bytes_ > config_.capacity_bytes;
  }

  SessionEntry* find(const SessionKey& key);
  const SessionEntry* find(const SessionKey& key) const;

  /// Finds or creates an entry; returns nullptr when the table is full.
  SessionEntry* find_or_create(const SessionKey& key, common::TimePoint now);

  /// Single-probe fusion of find() + find_or_create(): on a miss, `gate`
  /// (if set) decides whether creation may proceed — e.g. a memory-pool
  /// reservation — and nullptr is returned when it refuses or the table is
  /// full. The separate find-then-create idiom probes the index twice per
  /// new session; this probes once either way.
  SessionEntry* find_or_create_gated(const SessionKey& key,
                                     common::TimePoint now,
                                     bool (*gate)(void*), void* gate_ctx);

  bool erase(const SessionKey& key);
  /// Drops every entry and frees all storage, as if newly constructed
  /// (insert_failures() keeps counting).
  void clear();

  /// The entry's cached pre-actions, or null. The pointer stays valid until
  /// the next set_pre_actions(), clear() or invalidate_pre_actions() on
  /// this table.
  const PreActions* pre_actions(const SessionEntry& entry) const {
    return entry.pre_actions_id == 0 ? nullptr
                                     : &pooled(entry.pre_actions_id).value;
  }
  /// Caches `value` on the entry (interning it) and returns the pooled copy,
  /// valid as long as a pre_actions() pointer would be.
  const PreActions& set_pre_actions(SessionEntry& entry,
                                    const PreActions& value);
  void clear_pre_actions(SessionEntry& entry);
  /// Slots in the pre-action pool: never more than the peak number of
  /// distinct values cached at once since construction or clear().
  std::size_t pre_action_pool_size() const { return pool_slots_; }

  /// Drops every cached pre-action (rule-table update invalidation, §3.2.2);
  /// state-bearing entries survive, pure flow-cache entries are erased.
  void invalidate_pre_actions();

  /// Removes entries idle beyond their FSM-dependent TTL; returns the count.
  /// `on_evict` (optional) observes each removed entry — used by the
  /// vSwitch to release per-entry memory-pool reservations.
  using EvictFn = std::function<void(const SessionKey&, const SessionEntry&)>;
  std::size_t age_out(common::TimePoint now, const EvictFn& on_evict = {});

  /// Re-syncs the aging wheel after the entry's state was mutated in place
  /// (the datapath calls this after state.observe()). Only needed when the
  /// mutation may have *shrunk* the deadline; always safe to call.
  void touch(const SessionEntry* entry);

  /// TTL applicable to an entry (embryonic sessions age fast, §7.3).
  common::Duration ttl_of(const SessionEntry& entry) const;

  std::uint64_t insert_failures() const { return insert_failures_; }

  const SessionTableConfig& config() const { return config_; }

  /// Burst-processing software prefetch (wall-clock only, no behavioral
  /// effect): step 1 computes the probe hash and prefetches the index cell;
  /// step 2 — issued after the other packets' step 1s, so the cell loads
  /// have landed — prefetches the key and entry the cell points at. A burst
  /// receiver runs step 1 across the whole burst, then step 2, then the
  /// actual per-packet find()s hit warm lines. On a table that has never
  /// held an entry both steps return at once (step 1 returns 0).
  std::uint64_t prefetch_index(const SessionKey& key) const;
  void prefetch_entry(std::uint64_t h) const;

  /// Iteration support for censuses (e.g. the Fig 15 state-size census).
  /// Order is slab order (deterministic for a given operation sequence).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t ci = 0; ci < chunks_.size(); ++ci) {
      const Chunk& chunk = *chunks_[ci];
      for (std::size_t ni = 0; ni < chunk.size(); ++ni) {
        if (chunk[ni].live) fn((*key_chunks_[ci])[ni], chunk[ni].entry);
      }
    }
  }

 private:
  static constexpr std::size_t kChunkSize = 512;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  /// SoA hot-field split: keys live in a dense parallel slab (key_chunks_)
  /// so the probe loop's compares touch ~20B-stride lines instead of
  /// pulling whole Nodes; the fat Node (entry/state/aging bookkeeping) is
  /// only touched once a probe confirms the hit — which real processing
  /// pays anyway.
  /// The flow hash is not stored: the index cell's tag holds its low 32
  /// bits, which is all a home slot needs.
  struct Node {
    /// Bumped by every wheel enqueue and by free: only a ref carrying the
    /// current value is live, so refs to an erased or recycled node skip.
    std::uint32_t wheel_seq = 0;
    bool live = false;
    std::int64_t wheel_bucket = 0;
    SessionEntry entry;
  };
  static_assert(sizeof(Node) <= 96);
  using Chunk = std::vector<Node>;
  using KeyChunk = std::vector<SessionKey>;

  /// Probe cell: cached hash tag for cheap rejection + slab slot or pool id
  /// (or sentinel). The tag is the low 32 bits of the hash, so it also
  /// names the home cell of any index up to 2^32 cells; a tag collision
  /// merely falls through to the key (or value) compare. 8 bytes/cell keeps
  /// the index cache-resident. Erases use backward-shift deletion (no
  /// tombstones), so churn never forces a rebuild and probe chains stay as
  /// short as the live load. The session index and the pre-action pool
  /// index share this cell and the three cell_* helpers below.
  struct Cell {
    std::uint32_t hash_tag = 0;
    std::uint32_t slot = kEmpty;
  };

  /// One distinct pre-action value; `refs` counts the entries holding its
  /// id. An id whose count reaches 0 goes to the free list and is reused.
  struct PooledPreActions {
    PreActions value;
    std::uint32_t refs = 0;
  };
  /// The pool grows in fixed chunks, like the slab: a value never moves, and
  /// growth never holds an old and a new copy of the pool at once. Chunks
  /// are small because most tables hold one value or a few.
  static constexpr std::size_t kPoolChunkSize = 8;
  using PoolChunk = std::array<PooledPreActions, kPoolChunkSize>;

  /// Wheel reference; stale once the node's wheel_seq moves on.
  struct Ref {
    std::uint32_t slot;
    std::uint32_t seq;
  };

  static std::uint64_t hash_of(const SessionKey& key);
  Node& node_at(std::uint32_t slot) {
    return (*chunks_[slot / kChunkSize])[slot % kChunkSize];
  }
  const Node& node_at(std::uint32_t slot) const {
    return (*chunks_[slot / kChunkSize])[slot % kChunkSize];
  }
  SessionKey& key_at(std::uint32_t slot) {
    return (*key_chunks_[slot / kChunkSize])[slot % kChunkSize];
  }
  const SessionKey& key_at(std::uint32_t slot) const {
    return (*key_chunks_[slot / kChunkSize])[slot % kChunkSize];
  }
  PooledPreActions& pooled(std::uint32_t id) {
    return (*pool_[(id - 1) / kPoolChunkSize])[(id - 1) % kPoolChunkSize];
  }
  const PooledPreActions& pooled(std::uint32_t id) const {
    return (*pool_[(id - 1) / kPoolChunkSize])[(id - 1) % kPoolChunkSize];
  }

  static void cell_insert(std::vector<Cell>& cells, Cell cell);
  /// Backward-shift delete of the occupied cell at `hole`.
  static void cell_erase(std::vector<Cell>& cells, std::size_t hole);
  /// Re-inserts the occupied cells into a fresh index of `new_size` cells.
  static void cell_regrow(std::vector<Cell>& cells, std::size_t new_size);

  std::uint32_t find_slot(const SessionKey& key, std::uint64_t h) const;
  void index_erase(const SessionKey& key, std::uint64_t h);

  /// Returns the id of `value` with one more reference, adding it on miss.
  std::uint32_t intern(const PreActions& value);

  std::int64_t bucket_of(common::TimePoint deadline) const {
    return deadline / wheel_width_;
  }
  std::vector<Ref>& wheel_cell(std::int64_t bucket) {
    return wheel_ring_[static_cast<std::size_t>(bucket) & wheel_mask_];
  }
  std::size_t drain_cell(std::vector<Ref>& cell, common::TimePoint now,
                         const EvictFn& on_evict);
  common::TimePoint deadline_of(const Node& node) const {
    return node.entry.state.last_active + ttl_of(node.entry);
  }
  void wheel_enqueue(std::uint32_t slot, std::int64_t bucket);
  void free_node(std::uint32_t slot);

  SessionTableConfig config_;
  std::size_t entry_bytes_;
  /// Minimum TTL any entry can have — the conservative first-visit horizon.
  common::Duration min_ttl_;
  common::Duration wheel_width_;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<KeyChunk>> key_chunks_;  // parallel to chunks_
  std::vector<std::uint32_t> free_;
  std::vector<Cell> index_;  // empty until the first insert
  std::size_t size_ = 0;
  /// TTL wheel as a flat ring of bucket cells (power-of-two size covering
  /// the longest TTL plus slack). A cell may transiently hold refs for a
  /// bucket `ring_size` ahead of the drain cursor — an early visit merely
  /// recomputes the deadline and re-queues, so collisions cost work, never
  /// correctness. `wheel_floor_` is the lowest bucket that may still hold
  /// refs; touch() shrinking a deadline below it lowers it back.
  std::vector<std::vector<Ref>> wheel_ring_;  // empty until the first insert
  std::size_t wheel_mask_ = 0;
  std::int64_t wheel_floor_ = 0;
  /// age_out's deferred re-queues (bucket, slot); a member so steady-state
  /// sweeps reuse its capacity instead of regrowing it.
  std::vector<std::pair<std::int64_t, std::uint32_t>> requeue_;
  std::uint64_t insert_failures_ = 0;

  std::vector<std::unique_ptr<PoolChunk>> pool_;  // id - 1 → value
  std::uint32_t pool_slots_ = 0;  // ids 1..pool_slots_ have been handed out
  std::vector<std::uint32_t> pool_free_;
  std::vector<Cell> pool_index_;
};

}  // namespace nezha::flow
