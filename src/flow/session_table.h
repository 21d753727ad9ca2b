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
// Storage: entries live in slab chunks that grow with the table: chunk k
// holds 16 << k nodes up to 512 (16, 32, 64, 128, 256, then 512 a chunk),
// so a table holding a few dozen sessions pays for a few dozen nodes, not
// for a 512-node chunk. Slots are numbered in allocation order; a slot's
// chunk and offset come from a bit scan, and each chunk is a plain node
// array the table points at directly. Pointers returned by
// find/find_or_create stay valid until the entry is erased. A
// common::FlatTable of 8-byte {hash tag, slot} cells over the 64-bit flow
// hash indexes the slab — no per-node allocation or pointer chasing on the
// lookup hot path. Each slab node is one 64-byte cache line holding the key
// and every field a packet or an aging visit reads, so a hit costs the
// index cell plus that line. Freed slots are reused last-freed first, through a free
// list threaded through the free nodes. Nothing is allocated until the
// first insert, so an empty table (most FE caches of a large fleet) costs
// only its object.
//
// Side storage: the statistics counters (SessionCounters) and the QoS token
// bucket are only written under a statistics policy or a rate limit, so
// they live outside the node, in per-chunk arrays parallel to the slab (same
// chunk sizes) that are allocated when an entry of that chunk is first
// counted or rate-limited. The table owns them: the datapath records packets
// through observe(), reads counters(), and rate-limits through qos_admit().
// None of this changes the modeled bytes: entry_bytes() and used_bytes()
// charge what the paper's layout holds.
//
// Pre-actions are interned: an entry holds a 4-byte handle into a per-table
// pool of distinct values with reference counts. The flows of one vNIC
// mostly cache the same value (the repo benchmark's workloads hold at least
// 37 live handles per distinct value), so a shared value costs each session
// only its handle. A value unique to one flow (a per-tuple NAT endpoint)
// costs about what an inline copy would: the pooled value plus its index
// cell. The pool grows in chunks like the slab's, from one value up to 8
// (1, 2, 4, then 8 a chunk), so a flow cache holding one value pays for
// one. Read and write them through pre_actions() / set_pre_actions() /
// clear_pre_actions(); erase, aging, clear() and invalidate_pre_actions()
// release the handles they drop.
//
// Aging: a lazy TTL wheel. Every entry is queued in the bucket of its
// earliest *possible* deadline (TTLs are FSM-dependent, so that is
// last_active + min TTL at creation); age_out drains only buckets at or
// before `now`, recomputes each visited entry's exact deadline, and
// re-queues survivors at that deadline's bucket once the sweep is done, in
// visit order. Evictions are therefore exact while a sweep touches only
// expired candidates, not the whole table. Each bucket is a FIFO list
// threaded through the nodes (prev/next slot links and the bucket in the
// node's line), as in Varghese and Lauck's hashed timing wheels: the wheel
// costs one head/tail pair per bucket and nothing per entry, and freeing an
// entry unlinks it. External code that mutates an entry's state directly
// should call touch() afterwards so a TTL that *shrank* (e.g. FIN/RST →
// closed) re-queues the entry earlier; refreshes that extend the deadline
// need no notification.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flat_table.h"
#include "src/common/time.h"
#include "src/flow/direction.h"
#include "src/flow/pre_actions.h"
#include "src/flow/session.h"
#include "src/net/headers.h"

namespace nezha::flow {

class SessionTable;

/// Token bucket for the QoS pre-action (enforcement metadata, not session
/// state — it never needs to leave the enforcing node).
struct QosBucket {
  double tokens_bits = 0;
  /// Time of the last charge; negative until the first (simulated time
  /// never is), so a bucket first charged at t = 0 still drains.
  common::TimePoint refilled_at = -1;

  /// Charges `bits` against the rate limit; returns false (drop) when the
  /// bucket is empty. `kbps` == 0 means unlimited. Burst: one second's
  /// worth of tokens.
  bool admit(std::uint32_t kbps, std::size_t bits, common::TimePoint now);
};

/// The "no slot" sentinel: an empty index cell, and the table_slot of a
/// free slab node.
inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// What a caller holds of a session: its state, plus the table's private
/// bookkeeping (the pre-action handle and the slot).
struct SessionEntry {
 private:
  friend class SessionTable;
  /// Handle of the cached pre-actions in the owning table's pool; 0 = none.
  /// The table reads and writes it, counting references.
  std::uint32_t pre_actions_id = 0;
  /// Slab slot backing this entry (lets touch() reach the aging bookkeeping
  /// and the side storage in O(1)); kNoSlot on a free node.
  std::uint32_t table_slot = kNoSlot;

 public:
  SessionState state;
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

  std::size_t size() const { return index_.size(); }
  std::size_t memory_bytes() const { return size() * entry_bytes_; }
  bool full() const {
    return config_.capacity_bytes != 0 &&
           memory_bytes() + entry_bytes_ > config_.capacity_bytes;
  }

  SessionEntry* find(const SessionKey& key);

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
  /// vSwitch to release per-entry memory-pool reservations. It must not
  /// change this table.
  using EvictFn = std::function<void(const SessionKey&, const SessionEntry&)>;
  std::size_t age_out(common::TimePoint now, const EvictFn& on_evict = {});

  /// Re-syncs the aging wheel after the entry's state was mutated in place.
  /// Only needed when the mutation may have *shrunk* the deadline; always
  /// safe to call, also on an entry since erased (a no-op) or recycled.
  void touch(const SessionEntry* entry);

  /// Records a packet on the entry: state.observe(), then, under the
  /// entry's statistics policy, counts it in the side storage, then
  /// touch() (FIN/RST may have shrunk the aging deadline).
  void observe(SessionEntry& entry, Direction dir, net::TcpFlags tcp_flags,
               bool is_tcp, std::size_t wire_bytes, common::TimePoint now);
  /// The entry's statistics counters; all zero if it was never counted.
  SessionCounters counters(const SessionEntry& entry) const;
  /// The entry's QoS token bucket (QosBucket::admit). At `kbps` == 0 this
  /// admits without touching any storage.
  bool qos_admit(SessionEntry& entry, std::uint32_t kbps, std::size_t bits,
                 common::TimePoint now);

  /// TTL applicable to an entry (embryonic sessions age fast, §7.3).
  common::Duration ttl_of(const SessionEntry& entry) const;

  std::uint64_t insert_failures() const { return insert_failures_; }

  const SessionTableConfig& config() const { return config_; }

  /// Burst-processing software prefetch (wall-clock only, no behavioral
  /// effect): step 1 computes the probe hash and prefetches the index cell;
  /// step 2 — issued after the other packets' step 1s, so the cell loads
  /// have landed — prefetches the node (key and entry) it points at. A burst
  /// receiver runs step 1 across the whole burst, then step 2, then the
  /// actual per-packet find()s hit warm lines. On an empty table both
  /// steps return at once (step 1 returns 0).
  std::uint64_t prefetch_index(const SessionKey& key) const;
  void prefetch_entry(std::uint64_t h) const;

  /// Iteration over the live entries, `fn(const SessionKey&, entry)`, for
  /// censuses (e.g. the Fig 15 state-size census) and in-place updates:
  /// `fn` may change an entry (its state, its pre-actions) but must not
  /// insert or erase. Order is slot order (deterministic for a given
  /// operation sequence).
  template <typename Fn>
  void for_each(Fn&& fn) {
    std::uint32_t left = slots_;
    for (std::size_t k = 0; left > 0; ++k) {
      const std::uint32_t n = std::min(left, SlabChunks::capacity(k));
      for (Node* node = chunks_[k].get(); node != chunks_[k].get() + n;
           ++node) {
        if (node->entry.table_slot == kNoSlot) continue;
        fn(std::as_const(node->key), node->entry);  // the key stays read-only
      }
      left -= n;
    }
  }

 private:
  /// One cache line: the key, the aging links and the entry. The index
  /// cell's 32-bit tag rejects almost every mismatch, so the key compare
  /// that confirms a hit loads the line the caller reads next. The flow
  /// hash is not stored: the tag holds its low 32 bits, which is all a home
  /// slot needs. A free node has entry.table_slot == kNoSlot.
  struct alignas(64) Node {
    SessionKey key;
    /// Neighbours in the node's wheel bucket list (kNoSlot at either end).
    /// A free node is on no list, and its wheel_next links the free list.
    std::uint32_t wheel_prev = kNoSlot;
    std::uint32_t wheel_next = kNoSlot;
    /// The bucket the node is queued in, modulo 2^32. Its low bits pick the
    /// ring cell; two buckets compare by signed difference, exact while
    /// they lie within 2^31 buckets of each other (a TTL span and a sweep
    /// gap are far shorter).
    std::uint32_t wheel_bucket = 0;
    SessionEntry entry;
  };
  static_assert(sizeof(Node) == 64 && alignof(Node) == 64);
  static_assert(std::is_trivially_destructible_v<Node>);

  struct SlotPos {
    std::uint32_t chunk;
    std::uint32_t offset;
  };
  /// Chunk numbering shared by the slab (with its side storage) and the
  /// pre-action pool: chunk k holds kFirst << k slots up to kMax. With
  /// kFirst = 16 and kMax = 512, slots [0, 16) are chunk 0, [16, 48) chunk
  /// 1, ..., [240, 496) chunk 4, then 512 slots a chunk.
  template <std::uint32_t kFirst, std::uint32_t kMax>
  struct Chunks {
    static constexpr std::size_t kGrowing =
        std::countr_zero(kMax) - std::countr_zero(kFirst);
    static constexpr std::uint32_t kGrowingSlots = kMax - kFirst;
    static constexpr std::uint32_t capacity(std::size_t k) {
      return k < kGrowing ? kFirst << k : kMax;
    }
    static SlotPos locate(std::uint32_t slot) {
      if (slot < kGrowingSlots) {
        // Chunk k holds the slots with slot + kFirst in
        // [kFirst << k, kFirst << (k + 1)).
        const std::uint32_t shifted = slot + kFirst;
        const auto top =
            static_cast<std::uint32_t>(std::bit_width(shifted)) - 1;
        return {top - std::countr_zero(kFirst), shifted - (1u << top)};
      }
      const std::uint32_t rest = slot - kGrowingSlots;
      return {static_cast<std::uint32_t>(kGrowing) + rest / kMax,
              rest % kMax};
    }
  };
  using SlabChunks = Chunks<16, 512>;
  /// A chunk is raw storage: each node is constructed when its slot is first
  /// handed out, so a chunk's pages are touched only as it fills.
  struct ChunkFree {
    void operator()(Node* chunk) const {
      ::operator delete(chunk, std::align_val_t{alignof(Node)});
    }
  };
  using NodeChunk = std::unique_ptr<Node[], ChunkFree>;

  /// A slot's side storage, value-initialised (zero counters, a bucket
  /// that fills on first use) until it is first counted or rate-limited.
  struct Extras {
    SessionCounters counters;
    QosBucket qos;
  };
  static_assert(sizeof(Extras) == 48);

  /// Index cell: cached hash tag for cheap rejection + slab slot or pool id
  /// (kNoSlot when empty). The tag is the low 32 bits of the hash, so it
  /// also names the home cell of any index up to 2^32 cells; a tag
  /// collision merely falls through to the key (or value) compare. 8
  /// bytes/cell keeps the index cache-resident. The session index and the
  /// pre-action pool index share this cell.
  struct Cell {
    std::uint32_t hash_tag = 0;
    std::uint32_t slot = kNoSlot;
  };
  struct CellTraits {
    static bool empty(const Cell& cell) { return cell.slot == kNoSlot; }
    static std::uint64_t hash(const Cell& cell) { return cell.hash_tag; }
  };
  using Index = common::FlatTable<Cell, CellTraits>;

  /// One distinct pre-action value; `refs` counts the entries holding its
  /// id. An id whose count reaches 0 goes to the free list and is reused.
  struct PooledPreActions {
    PreActions value;
    std::uint32_t refs = 0;
  };
  /// The pool grows in chunks, like the slab: a value never moves, and
  /// growth never holds an old and a new copy of the pool at once. Chunks
  /// start at one value because most tables hold one value or a few.
  using PoolChunks = Chunks<1, 8>;

  /// A FIFO of nodes threaded through their wheel links.
  struct WheelList {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  static std::uint64_t hash_of(const SessionKey& key);
  Node& node_at(std::uint32_t slot) {
    const SlotPos p = SlabChunks::locate(slot);
    return chunks_[p.chunk][p.offset];
  }
  const Node& node_at(std::uint32_t slot) const {
    const SlotPos p = SlabChunks::locate(slot);
    return chunks_[p.chunk][p.offset];
  }
  /// The index cell of `key`, whose flow hash is `h`, or null.
  const Cell* index_cell(const SessionKey& key, std::uint64_t h) const {
    return index_.find(h, [&](const Cell& cell) {
      return cell.hash_tag == static_cast<std::uint32_t>(h) &&
             node_at(cell.slot).key == key;
    });
  }
  /// Hands out a slot: the last one freed, else a new one at the end of the
  /// slab (allocating its chunk when it is the chunk's first).
  std::uint32_t take_slot();
  /// The slot's side storage, allocating its chunk's array on first use.
  Extras& extras_at(std::uint32_t slot);
  /// The slot's side storage, or null while its chunk has none.
  const Extras* find_extras(std::uint32_t slot) const {
    const SlotPos p = SlabChunks::locate(slot);
    return p.chunk < extras_.size() && extras_[p.chunk] != nullptr
               ? &extras_[p.chunk][p.offset]
               : nullptr;
  }
  PooledPreActions& pooled(std::uint32_t id) {
    const SlotPos p = PoolChunks::locate(id - 1);
    return pool_[p.chunk][p.offset];
  }
  const PooledPreActions& pooled(std::uint32_t id) const {
    const SlotPos p = PoolChunks::locate(id - 1);
    return pool_[p.chunk][p.offset];
  }

  /// Returns the id of `value` with one more reference, adding it on miss.
  std::uint32_t intern(const PreActions& value);

  std::int64_t bucket_of(common::TimePoint deadline) const {
    return deadline / wheel_width_;
  }
  WheelList& wheel_cell(std::uint32_t bucket) {
    return wheel_[bucket & wheel_mask_];
  }
  /// Appends the node at `slot` (on no list) to `list`.
  void list_append(WheelList& list, std::uint32_t slot, Node& node);
  /// Takes `node` off `list`, which holds it.
  void list_unlink(WheelList& list, const Node& node);
  /// Queues the node at `slot` (on no list) in `bucket`.
  void wheel_link(std::uint32_t slot, std::int64_t bucket);
  std::size_t drain_cell(WheelList& cell, common::TimePoint now,
                         const EvictFn& on_evict);
  common::TimePoint deadline_of(const Node& node) const {
    return node.entry.state.last_active + ttl_of(node.entry);
  }
  /// Unlinks the node at `slot` from its wheel bucket, then releases it.
  void free_node(std::uint32_t slot);
  /// Frees the node at `slot`, which is on no wheel list: its pre-action
  /// handle and side storage are reset and the slot heads the free list.
  void release_node(std::uint32_t slot);

  SessionTableConfig config_;
  std::size_t entry_bytes_;
  /// Minimum TTL any entry can have — the conservative first-visit horizon.
  common::Duration min_ttl_;
  common::Duration wheel_width_;

  std::vector<NodeChunk> chunks_;
  /// Slots handed out so far: [0, slots_) are constructed nodes.
  std::uint32_t slots_ = 0;
  /// Last freed slot, whose wheel_next names the one freed before it.
  std::uint32_t free_head_ = kNoSlot;
  /// Parallel to chunks_, but only as long as the last chunk with side
  /// storage, and null for a chunk none of whose entries needed it.
  std::vector<std::unique_ptr<Extras[]>> extras_;
  Index index_;
  /// TTL wheel as a flat ring of bucket lists (power-of-two size covering
  /// the longest TTL plus slack). A cell may transiently hold nodes of a
  /// bucket `ring_size` ahead of the drain cursor — an early visit merely
  /// recomputes the deadline and re-queues, so collisions cost work, never
  /// correctness. `wheel_floor_` is the lowest bucket that may still hold
  /// nodes; touch() shrinking a deadline below it lowers it back.
  std::vector<WheelList> wheel_;  // empty until the first insert
  std::size_t wheel_mask_ = 0;
  std::int64_t wheel_floor_ = 0;
  /// A sweep's survivors in visit order, each with its new bucket in
  /// wheel_bucket, queued there once the sweep is done.
  WheelList requeue_;
  std::uint64_t insert_failures_ = 0;

  std::vector<std::unique_ptr<PooledPreActions[]>> pool_;  // id - 1 → value
  std::uint32_t pool_slots_ = 0;  // ids 1..pool_slots_ have been handed out
  std::vector<std::uint32_t> pool_free_;
  Index pool_index_;
};

}  // namespace nezha::flow
