#include "src/flow/session_table.h"

#include <algorithm>
#include <utility>

#include "src/net/five_tuple.h"

namespace nezha::flow {

bool SessionEntry::qos_admit(std::uint32_t kbps, std::size_t bits,
                             common::TimePoint now) {
  if (kbps == 0) return true;
  const double rate_bps = static_cast<double>(kbps) * 1000.0;
  const double burst_bits = rate_bps;  // one-second burst
  if (qos_refilled_at == 0) {
    qos_tokens_bits = burst_bits;
  } else {
    qos_tokens_bits += rate_bps * common::to_seconds(now - qos_refilled_at);
    if (qos_tokens_bits > burst_bits) qos_tokens_bits = burst_bits;
  }
  qos_refilled_at = now;
  if (qos_tokens_bits < static_cast<double>(bits)) return false;
  qos_tokens_bits -= static_cast<double>(bits);
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
  if (index_.empty()) return kEmpty;
  const auto tag = static_cast<std::uint32_t>(h);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Cell& cell = index_[i];
    if (cell.slot == kEmpty) return kEmpty;
    if (cell.hash_tag == tag && key_at(cell.slot) == key) {
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
  if (cell.slot != kEmpty && cell.slot / kChunkSize < chunks_.size()) {
    __builtin_prefetch(&key_at(cell.slot));
    __builtin_prefetch(&node_at(cell.slot).entry);
  }
}

void SessionTable::cell_insert(std::vector<Cell>& cells, Cell cell) {
  const std::size_t mask = cells.size() - 1;
  std::size_t i = cell.hash_tag & mask;
  while (cells[i].slot != kEmpty) i = (i + 1) & mask;
  cells[i] = cell;
}

void SessionTable::cell_erase(std::vector<Cell>& cells, std::size_t hole) {
  // Backward-shift deletion: walk the cluster after the hole and pull back
  // every cell whose home position lies at or before the hole. Leaves no
  // tombstones, so churn never degrades probes or forces a rebuild.
  const std::size_t mask = cells.size() - 1;
  for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
    const Cell& cell = cells[j];
    if (cell.slot == kEmpty) break;
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
    if (cell.slot != kEmpty) cell_insert(cells, cell);
  }
}

void SessionTable::index_erase(const SessionKey& key, std::uint64_t h) {
  const auto tag = static_cast<std::uint32_t>(h);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Cell& cell = index_[i];
    if (cell.slot == kEmpty) return;  // not present
    if (cell.hash_tag == tag && key_at(cell.slot) == key) {
      cell_erase(index_, i);
      return;
    }
  }
}

std::uint32_t SessionTable::intern(const PreActions& value) {
  const std::uint32_t tag = value_tag(value);
  if (!pool_index_.empty()) {
    const std::size_t mask = pool_index_.size() - 1;
    for (std::size_t i = tag & mask; pool_index_[i].slot != kEmpty;
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

void SessionTable::wheel_enqueue(std::uint32_t slot, std::int64_t bucket) {
  Node& node = node_at(slot);
  node.wheel_bucket = bucket;
  ++node.wheel_seq;
  // A shrink below the drain cursor (touch() after FIN/RST) re-opens that
  // bucket; lowering the floor keeps the next sweep exact.
  if (bucket < wheel_floor_) wheel_floor_ = bucket;
  wheel_cell(bucket).push_back(Ref{slot, node.wheel_seq});
}

void SessionTable::free_node(std::uint32_t slot) {
  Node& node = node_at(slot);
  clear_pre_actions(node.entry);
  node.live = false;
  node.entry = SessionEntry{};
  ++node.wheel_seq;  // invalidates any wheel refs still pointing here
  free_.push_back(slot);
  --size_;
}

SessionEntry* SessionTable::find(const SessionKey& key) {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &node_at(slot).entry;
}

const SessionEntry* SessionTable::find(const SessionKey& key) const {
  const std::uint32_t slot = find_slot(key, hash_of(key));
  return slot == kEmpty ? nullptr : &node_at(slot).entry;
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
  if (const std::uint32_t slot = find_slot(key, h); slot != kEmpty) {
    return &node_at(slot).entry;
  }
  if (full()) {
    ++insert_failures_;
    return nullptr;
  }
  if (gate != nullptr && !gate(gate_ctx)) return nullptr;
  if (index_.empty()) {
    index_.assign(kInitialIndexSize, Cell{});
    wheel_ring_.resize(wheel_mask_ + 1);
  }
  // Keep live load below 3/4 so probe chains stay short. Backward-shift
  // erases leave no tombstones, so rebuilds happen only on genuine growth
  // of the concurrent working set — churn never triggers one.
  if ((size_ + 1) * 4 > index_.size() * 3) {
    cell_regrow(index_, index_.size() * 2);
  }

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    if (chunks_.empty() || chunks_.back()->size() == kChunkSize) {
      chunks_.push_back(std::make_unique<Chunk>());
      chunks_.back()->reserve(kChunkSize);
      key_chunks_.push_back(std::make_unique<KeyChunk>());
      key_chunks_.back()->reserve(kChunkSize);
    }
    chunks_.back()->emplace_back();
    key_chunks_.back()->emplace_back();
    slot = static_cast<std::uint32_t>((chunks_.size() - 1) * kChunkSize +
                                      chunks_.back()->size() - 1);
  }
  Node& node = node_at(slot);
  key_at(slot) = key;
  node.live = true;
  node.entry.state.last_active = now;
  node.entry.table_slot = slot;
  cell_insert(index_, Cell{static_cast<std::uint32_t>(h), slot});
  ++size_;
  // Conservative first wheel visit: the entry's TTL may shrink to min_ttl_
  // via direct state mutation before the first sweep sees it; the visit
  // recomputes the exact deadline and re-queues.
  wheel_enqueue(slot, bucket_of(now + min_ttl_));
  return &node.entry;
}

bool SessionTable::erase(const SessionKey& key) {
  const std::uint64_t h = hash_of(key);
  const std::uint32_t slot = find_slot(key, h);
  if (slot == kEmpty) return false;
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
  for (auto& chunk : chunks_) {
    for (Node& node : *chunk) {
      if (node.live) clear_pre_actions(node.entry);
    }
  }
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
  Node& node = node_at(slot);
  if (!node.live || &node.entry != entry) return;  // stale pointer
  const std::int64_t b = bucket_of(deadline_of(node));
  // Deadline extensions resolve lazily at the next visit; only a shrink
  // needs an earlier queue position to stay exact across sweeps.
  if (b < node.wheel_bucket) wheel_enqueue(slot, b);
}

std::size_t SessionTable::drain_cell(std::vector<Ref>& cell,
                                     common::TimePoint now,
                                     const EvictFn& on_evict) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < cell.size(); ++i) {
    // Slide a prefetch ahead of the walk: each ref hits a random slab node,
    // and the visit logic below is long enough to hide most of the miss.
    if (i + 8 < cell.size() &&
        cell[i + 8].slot / kChunkSize < chunks_.size()) {
      __builtin_prefetch(&node_at(cell[i + 8].slot));
    }
    const Ref& ref = cell[i];
    if (ref.slot / kChunkSize >= chunks_.size()) continue;
    Node& node = node_at(ref.slot);
    if (node.wheel_seq != ref.seq) {
      continue;  // erased, recycled, or superseded by a later enqueue
    }
    const common::TimePoint deadline = deadline_of(node);
    if (deadline <= now) {
      const SessionKey& key = key_at(ref.slot);
      if (on_evict) on_evict(key, node.entry);
      index_erase(key, hash_of(key));
      free_node(ref.slot);
      ++removed;
    } else {
      // Survivor (or a ring collision from a future bucket): defer the
      // re-queue so the drain loop never mutates the cell it iterates; a
      // deadline still in a drained bucket is revisited by the next sweep.
      requeue_.emplace_back(bucket_of(deadline), ref.slot);
    }
  }
  cell.clear();  // retains capacity — steady-state sweeps allocate nothing
  return removed;
}

std::size_t SessionTable::age_out(common::TimePoint now,
                                  const EvictFn& on_evict) {
  const std::int64_t now_bucket = bucket_of(now);
  if (now_bucket < wheel_floor_) return 0;  // nothing can be due yet
  if (wheel_ring_.empty()) {  // never held an entry
    wheel_floor_ = now_bucket + 1;
    return 0;
  }
  std::size_t removed = 0;
  requeue_.clear();
  const std::size_t span =
      static_cast<std::size_t>(now_bucket - wheel_floor_) + 1;
  if (span >= wheel_ring_.size()) {
    // Sweep gap exceeded the ring: every cell is potentially due. A single
    // full pass visits each ref once (future ones just re-queue).
    for (auto& cell : wheel_ring_) {
      removed += drain_cell(cell, now, on_evict);
    }
  } else {
    for (std::int64_t b = wheel_floor_; b <= now_bucket; ++b) {
      removed += drain_cell(wheel_cell(b), now, on_evict);
    }
  }
  wheel_floor_ = now_bucket + 1;
  for (const auto& [bucket, slot] : requeue_) wheel_enqueue(slot, bucket);
  return removed;
}

}  // namespace nezha::flow
