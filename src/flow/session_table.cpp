#include "src/flow/session_table.h"

#include <algorithm>
#include <utility>

#include "src/net/five_tuple.h"

namespace nezha::flow {

bool QosBucket::admit(std::uint32_t kbps, std::size_t bits,
                      common::TimePoint now) {
  if (kbps == 0) return true;
  const double rate_bps = static_cast<double>(kbps) * 1000.0;
  const double burst_bits = rate_bps;  // one-second burst
  if (refilled_at < 0) {
    tokens_bits = burst_bits;
  } else {
    tokens_bits += rate_bps * common::to_seconds(now - refilled_at);
    if (tokens_bits > burst_bits) tokens_bits = burst_bits;
  }
  refilled_at = now;
  if (tokens_bits < static_cast<double>(bits)) return false;
  tokens_bits -= static_cast<double>(bits);
  return true;
}

namespace {

std::size_t compute_entry_bytes(const SessionTableConfig& config) {
  std::size_t n = kSessionKeyBytes;
  if (config.store_pre_actions) n += kPreActionsBytes;
  if (config.store_state) n += kStateAllocBytes;
  return n;
}

constexpr std::size_t kInitialIndexSize = 64;      // power of two
constexpr std::size_t kInitialPoolIndexSize = 8;   // power of two

/// Probe-cell tag of a pre-action value: its fields packed into 64-bit
/// words, folded by multiply and mixed once. It must be cheap: every new
/// flow interns a value, nearly always one its table already holds. A field
/// left out would cost probe length, never correctness.
std::uint32_t value_tag(const PreActions& value) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = value.rule_version;
  for (const DirPreAction* d : {&value.tx, &value.rx}) {
    const std::uint64_t words[] = {
        std::uint64_t{d->nat_ip.value()} << 32 |
            std::uint64_t{d->nat_port} << 16 |
            std::uint64_t{static_cast<std::uint8_t>(d->acl_verdict)} << 8 |
            std::uint64_t{d->nat_enabled},
        std::uint64_t{d->rate_limit_kbps} << 32 |
            std::uint64_t{static_cast<std::uint8_t>(d->stats_mode)} << 8 |
            std::uint64_t{d->mirror},
        (d->mirror_target.mac.value() << 16) ^ d->mirror_target.ip.value(),
        (d->next_hop.mac.value() << 16) ^ d->next_hop.ip.value()};
    for (const std::uint64_t w : words) h = (h ^ w) * kMul;
  }
  return static_cast<std::uint32_t>(net::flow_hash_mix64(h));
}

}  // namespace

SessionTable::SessionTable(SessionTableConfig config)
    : config_(config), entry_bytes_(compute_entry_bytes(config)) {
  // Stateless tables have one fixed TTL; stateful ones can shrink down to
  // closed_ttl at any moment, so that is the conservative horizon.
  min_ttl_ = config_.established_ttl;
  if (config_.store_state) {
    min_ttl_ = std::min({config_.established_ttl, config_.embryonic_ttl,
                         config_.closed_ttl});
  }
  if (min_ttl_ < 1) min_ttl_ = 1;
  wheel_width_ = min_ttl_;
  // Ring sized to span the longest TTL plus sweep slack; anything wider
  // (pathological TTL ratios, long sweep gaps) degrades to early visits of
  // colliding buckets, not to missed evictions.
  const std::int64_t span = config_.established_ttl / wheel_width_ + 4;
  std::size_t ring = 8;
  while (ring < static_cast<std::size_t>(span) && ring < 4096) ring *= 2;
  wheel_mask_ = ring - 1;
}

std::uint64_t SessionTable::hash_of(const SessionKey& key) {
  return net::flow_hash(key.canonical_ft,
                        0x9e3779b97f4a7c15ull ^ key.vpc_id);
}

std::uint32_t SessionTable::find_slot(const SessionKey& key,
                                      std::uint64_t h) const {
  if (index_.empty()) return kNoSlot;
  const auto tag = static_cast<std::uint32_t>(h);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Cell& cell = index_[i];
    if (cell.slot == kNoSlot) return kNoSlot;
    if (cell.hash_tag == tag && node_at(cell.slot).key == key) {
      return cell.slot;
    }
  }
}

std::uint64_t SessionTable::prefetch_index(const SessionKey& key) const {
  if (index_.empty()) return 0;
  const std::uint64_t h = hash_of(key);
  __builtin_prefetch(&index_[h & (index_.size() - 1)]);
  return h;
}

void SessionTable::prefetch_entry(std::uint64_t h) const {
  if (index_.empty()) return;
  const Cell& cell = index_[h & (index_.size() - 1)];
  if (cell.slot != kNoSlot) __builtin_prefetch(&node_at(cell.slot));
}

void SessionTable::cell_insert(std::vector<Cell>& cells, Cell cell) {
  const std::size_t mask = cells.size() - 1;
  std::size_t i = cell.hash_tag & mask;
  while (cells[i].slot != kNoSlot) i = (i + 1) & mask;
  cells[i] = cell;
}

void SessionTable::cell_erase(std::vector<Cell>& cells, std::size_t hole) {
  // Backward-shift deletion: walk the cluster after the hole and pull back
  // every cell whose home position lies at or before the hole. Leaves no
  // tombstones, so churn never degrades probes or forces a rebuild.
  const std::size_t mask = cells.size() - 1;
  for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const Cell& cell = cells[j];
    if (cell.slot == kNoSlot) break;
    const std::size_t home = cell.hash_tag & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      cells[hole] = cell;
      hole = j;
    }
  }
  cells[hole] = Cell{};
}

void SessionTable::cell_regrow(std::vector<Cell>& cells,
                               std::size_t new_size) {
  std::vector<Cell> old(new_size, Cell{});
  old.swap(cells);
  for (const Cell& cell : old) {
    if (cell.slot != kNoSlot) cell_insert(cells, cell);
  }
}

void SessionTable::index_erase(const SessionKey& key, std::uint64_t h) {
  const auto tag = static_cast<std::uint32_t>(h);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Cell& cell = index_[i];
    if (cell.slot == kNoSlot) return;  // not present
    if (cell.hash_tag == tag && node_at(cell.slot).key == key) {
      cell_erase(index_, i);
      return;
    }
  }
}

std::uint32_t SessionTable::intern(const PreActions& value) {
  const std::uint32_t tag = value_tag(value);
  if (!pool_index_.empty()) {
    const std::size_t mask = pool_index_.size() - 1;
    for (std::size_t i = tag & mask; pool_index_[i].slot != kNoSlot;
         i = (i + 1) & mask) {
      const Cell& cell = pool_index_[i];
      if (cell.hash_tag == tag && pooled(cell.slot).value == value) {
        ++pooled(cell.slot).refs;
        return cell.slot;
      }
    }
  }
  const std::size_t distinct = pool_slots_ - pool_free_.size();
  if ((distinct + 1) * 4 > pool_index_.size() * 3) {
    cell_regrow(pool_index_, std::max(kInitialPoolIndexSize,
                                      pool_index_.size() * 2));
  }
  std::uint32_t id;
  if (!pool_free_.empty()) {
    id = pool_free_.back();
    pool_free_.pop_back();
  } else {
    if (pool_slots_ % kPoolChunkSize == 0) {
      pool_.push_back(std::make_unique<PoolChunk>());
    }
    id = ++pool_slots_;
  }
  pooled(id) = PooledPreActions{value, 1};
  cell_insert(pool_index_, Cell{tag, id});
  return id;
}

const PreActions& SessionTable::set_pre_actions(SessionEntry& entry,
                                                const PreActions& value) {
  // Release first, so replacing a value never needs a slot beyond the
  // distinct live values. A freed slot keeps its value until reused, so
  // `value` may even alias it.
  clear_pre_actions(entry);
  entry.pre_actions_id = intern(value);
  return pooled(entry.pre_actions_id).value;
}

void SessionTable::clear_pre_actions(SessionEntry& entry) {
  const std::uint32_t id = entry.pre_actions_id;
  if (id == 0) return;
  entry.pre_actions_id = 0;
  PooledPreActions& held = pooled(id);
  if (--held.refs != 0) return;
  const std::size_t mask = pool_index_.size() - 1;
  std::size_t i = value_tag(held.value) & mask;
  while (pool_index_[i].slot != id) i = (i + 1) & mask;
  cell_erase(pool_index_, i);
  pool_free_.push_back(id);
}

void SessionTable::list_append(WheelList& list, std::uint32_t slot,
                               Node& node) {
  node.wheel_prev = list.tail;
  node.wheel_next = kNoSlot;
  if (list.tail == kNoSlot) {
    list.head = slot;
  } else {
    node_at(list.tail).wheel_next = slot;
  }
  list.tail = slot;
}

void SessionTable::list_unlink(WheelList& list, const Node& node) {
  if (node.wheel_prev == kNoSlot) {
    list.head = node.wheel_next;
  } else {
    node_at(node.wheel_prev).wheel_next = node.wheel_next;
  }
  if (node.wheel_next == kNoSlot) {
    list.tail = node.wheel_prev;
  } else {
    node_at(node.wheel_next).wheel_prev = node.wheel_prev;
  }
}

void SessionTable::wheel_link(std::uint32_t slot, std::int64_t bucket) {
  Node& node = node_at(slot);
  node.wheel_bucket = static_cast<std::uint32_t>(bucket);
  // A shrink below the drain cursor (touch() after FIN/RST) re-opens that
  // bucket; lowering the floor keeps the next sweep exact.
  if (bucket < wheel_floor_) wheel_floor_ = bucket;
  list_append(wheel_cell(node.wheel_bucket), slot, node);
}

std::uint32_t SessionTable::take_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = node_at(slot).wheel_next;
    return slot;
  }
  const std::uint32_t slot = slots_++;
  const SlotPos p = locate(slot);
  if (p.offset == 0) {
    chunks_.emplace_back(static_cast<Node*>(
        ::operator new(chunk_capacity(p.chunk) * sizeof(Node),
                       std::align_val_t{alignof(Node)})));
  }
  ::new (chunks_[p.chunk].get() + p.offset) Node{};
  return slot;
}

void SessionTable::free_node(std::uint32_t slot) {
  Node& node = node_at(slot);
  list_unlink(wheel_cell(node.wheel_bucket), node);
  release_node(slot);
}

void SessionTable::release_node(std::uint32_t slot) {
  Node& node = node_at(slot);
  clear_pre_actions(node.entry);
  node.entry = SessionEntry{};  // table_slot = kNoSlot: the node is free
  node.wheel_next = free_head_;
  free_head_ = slot;
  if (find_extras(slot) != nullptr) extras_at(slot) = Extras{};
  --size_;
}

SessionTable::Extras& SessionTable::extras_at(std::uint32_t slot) {
  const SlotPos p = locate(slot);
  if (p.chunk >= extras_.size()) extras_.resize(p.chunk + 1);
  if (extras_[p.chunk] == nullptr) {
    extras_[p.chunk] = std::make_unique<Extras[]>(chunk_capacity(p.chunk));
  }
  return extras_[p.chunk][p.offset];
}

void SessionTable::observe(SessionEntry& entry, Direction dir,
                           net::TcpFlags tcp_flags, bool is_tcp,
                           std::size_t wire_bytes, common::TimePoint now) {
  entry.state.observe(dir, tcp_flags, is_tcp, now);
  if (entry.state.stats_mode != StatsMode::kNone) {
    extras_at(entry.table_slot)
        .counters.count(entry.state.stats_mode, dir, wire_bytes);
  }
  touch(&entry);
}

SessionCounters SessionTable::counters(const SessionEntry& entry) const {
  const Extras* extras = find_extras(entry.table_slot);
  return extras == nullptr ? SessionCounters{} : extras->counters;
}

bool SessionTable::qos_admit(SessionEntry& entry, std::uint32_t kbps,
                             std::size_t bits, common::TimePoint now) {
  return kbps == 0 || extras_at(entry.table_slot).qos.admit(kbps, bits, now);
}

SessionEntry* SessionTable::find(const SessionKey& key) {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kNoSlot ? nullptr : &node_at(slot).entry;
}

SessionEntry* SessionTable::find_or_create(const SessionKey& key,
                                           common::TimePoint now) {
  return find_or_create_gated(key, now, nullptr, nullptr);
}

SessionEntry* SessionTable::find_or_create_gated(const SessionKey& key,
                                                 common::TimePoint now,
                                                 bool (*gate)(void*),
                                                 void* gate_ctx) {
  const std::uint64_t h = hash_of(key);
  if (const std::uint32_t slot = find_slot(key, h); slot != kNoSlot) {
    return &node_at(slot).entry;
  }
  if (full()) {
    ++insert_failures_;
    return nullptr;
  }
  if (gate != nullptr && !gate(gate_ctx)) return nullptr;
  if (index_.empty()) {
    index_.assign(kInitialIndexSize, Cell{});
    wheel_.resize(wheel_mask_ + 1);
  }
  // Keep live load below 3/4 so probe chains stay short. Backward-shift
  // erases leave no tombstones, so rebuilds happen only on genuine growth
  // of the concurrent working set — churn never triggers one.
  if ((size_ + 1) * 4 > index_.size() * 3) {
    cell_regrow(index_, index_.size() * 2);
  }

  const std::uint32_t slot = take_slot();
  Node& node = node_at(slot);
  node.key = key;
  node.entry.state.last_active = now;
  node.entry.table_slot = slot;
  cell_insert(index_, Cell{static_cast<std::uint32_t>(h), slot});
  ++size_;
  // Conservative first wheel visit: the entry's TTL may shrink to min_ttl_
  // via direct state mutation before the first sweep sees it; the visit
  // recomputes the exact deadline and re-queues.
  wheel_link(slot, bucket_of(now + min_ttl_));
  return &node.entry;
}

bool SessionTable::erase(const SessionKey& key) {
  const std::uint64_t h = hash_of(key);
  const std::uint32_t slot = find_slot(key, h);
  if (slot == kNoSlot) return false;
  index_erase(key, h);
  free_node(slot);
  return true;
}

void SessionTable::clear() {
  const std::uint64_t failures = insert_failures_;
  *this = SessionTable(config_);
  insert_failures_ = failures;
}

void SessionTable::invalidate_pre_actions() {
  if (!config_.store_state) {
    // Pure flow cache: the whole entry is the pre-action.
    clear();
    return;
  }
  for_each([this](const SessionKey&, SessionEntry& entry) {
    clear_pre_actions(entry);
  });
}

common::Duration SessionTable::ttl_of(const SessionEntry& entry) const {
  if (!config_.store_state) return config_.established_ttl;
  if (entry.state.fsm.closed()) return config_.closed_ttl;
  if (entry.state.fsm.embryonic() &&
      entry.state.fsm.state() != TcpFsmState::kNone) {
    return config_.embryonic_ttl;
  }
  return config_.established_ttl;
}

void SessionTable::touch(const SessionEntry* entry) {
  const std::uint32_t slot = entry->table_slot;
  if (slot == kNoSlot) return;  // erased
  Node& node = node_at(slot);
  const std::int64_t b = bucket_of(deadline_of(node));
  // Deadline extensions resolve lazily at the next visit; only a shrink
  // needs an earlier queue position to stay exact across sweeps.
  if (static_cast<std::int32_t>(static_cast<std::uint32_t>(b) -
                                node.wheel_bucket) < 0) {
    list_unlink(wheel_cell(node.wheel_bucket), node);
    wheel_link(slot, b);
  }
}

std::size_t SessionTable::drain_cell(WheelList& cell, common::TimePoint now,
                                     const EvictFn& on_evict) {
  std::size_t removed = 0;
  // The sweep takes the whole list: every node on it is either freed or
  // parked in requeue_, so no link inside it needs mending on the way.
  std::uint32_t slot = cell.head;
  cell = WheelList{};
  while (slot != kNoSlot) {
    Node& node = node_at(slot);
    const std::uint32_t next = node.wheel_next;
    // The walk follows the links: start loading the next node now, so its
    // miss overlaps this visit.
    if (next != kNoSlot) __builtin_prefetch(&node_at(next));
    const common::TimePoint deadline = deadline_of(node);
    if (deadline <= now) {
      const SessionKey& key = node.key;
      if (on_evict) on_evict(key, node.entry);
      index_erase(key, hash_of(key));
      release_node(slot);
      ++removed;
    } else {
      // Survivor (or a ring collision from a future bucket): park it so
      // the sweep never revisits it; a deadline still in a drained bucket
      // is revisited by the next sweep.
      node.wheel_bucket = static_cast<std::uint32_t>(bucket_of(deadline));
      list_append(requeue_, slot, node);
    }
    slot = next;
  }
  return removed;
}

std::size_t SessionTable::age_out(common::TimePoint now,
                                  const EvictFn& on_evict) {
  const std::int64_t now_bucket = bucket_of(now);
  if (now_bucket < wheel_floor_) return 0;  // nothing can be due yet
  if (wheel_.empty()) {  // never held an entry
    wheel_floor_ = now_bucket + 1;
    return 0;
  }
  std::size_t removed = 0;
  const std::size_t span =
      static_cast<std::size_t>(now_bucket - wheel_floor_) + 1;
  if (span >= wheel_.size()) {
    // Sweep gap exceeded the ring: every cell is potentially due. A single
    // full pass visits each node once (future ones just re-queue).
    for (WheelList& cell : wheel_) removed += drain_cell(cell, now, on_evict);
  } else {
    for (std::int64_t b = wheel_floor_; b <= now_bucket; ++b) {
      removed += drain_cell(wheel_cell(static_cast<std::uint32_t>(b)), now,
                            on_evict);
    }
  }
  wheel_floor_ = now_bucket + 1;
  // Survivors lie at or after now_bucket, within a TTL of it: their full
  // bucket is now_bucket plus the 32-bit difference.
  for (std::uint32_t slot = requeue_.head; slot != kNoSlot;) {
    Node& node = node_at(slot);
    const std::uint32_t next = node.wheel_next;
    if (next != kNoSlot) __builtin_prefetch(&node_at(next));
    wheel_link(slot, now_bucket + static_cast<std::int32_t>(
                                      node.wheel_bucket -
                                      static_cast<std::uint32_t>(now_bucket)));
    slot = next;
  }
  requeue_ = WheelList{};
  return removed;
}

}  // namespace nezha::flow
