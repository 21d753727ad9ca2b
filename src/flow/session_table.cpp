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

std::uint64_t SessionTable::prefetch_index(const SessionKey& key) const {
  if (index_.size() == 0) return 0;
  const std::uint64_t h = hash_of(key);
  __builtin_prefetch(index_.home(h));
  return h;
}

void SessionTable::prefetch_entry(std::uint64_t h) const {
  const Cell* cell = index_.home(h);
  if (cell != nullptr && cell->slot != kNoSlot) {
    __builtin_prefetch(&node_at(cell->slot));
  }
}

std::uint32_t SessionTable::intern(const PreActions& value) {
  const std::uint32_t tag = value_tag(value);
  if (const Cell* cell = pool_index_.find(tag, [&](const Cell& c) {
        return c.hash_tag == tag && pooled(c.slot).value == value;
      })) {
    ++pooled(cell->slot).refs;
    return cell->slot;
  }
  std::uint32_t id;
  if (!pool_free_.empty()) {
    id = pool_free_.back();
    pool_free_.pop_back();
  } else {
    const SlotPos p = PoolChunks::locate(pool_slots_);
    if (p.offset == 0) {
      pool_.push_back(std::make_unique<PooledPreActions[]>(
          PoolChunks::capacity(p.chunk)));
    }
    id = ++pool_slots_;
  }
  pooled(id) = PooledPreActions{value, 1};
  pool_index_.insert(Cell{tag, id});
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
  pool_index_.erase(pool_index_.find(
      value_tag(held.value), [id](const Cell& c) { return c.slot == id; }));
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
  const SlotPos p = SlabChunks::locate(slot);
  if (p.offset == 0) {
    chunks_.emplace_back(static_cast<Node*>(
        ::operator new(SlabChunks::capacity(p.chunk) * sizeof(Node),
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
}

SessionTable::Extras& SessionTable::extras_at(std::uint32_t slot) {
  const SlotPos p = SlabChunks::locate(slot);
  if (p.chunk >= extras_.size()) extras_.resize(p.chunk + 1);
  if (extras_[p.chunk] == nullptr) {
    extras_[p.chunk] =
        std::make_unique<Extras[]>(SlabChunks::capacity(p.chunk));
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
  const Cell* cell = index_cell(key, hash_of(key));
  return cell == nullptr ? nullptr : &node_at(cell->slot).entry;
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
  if (const Cell* cell = index_cell(key, h)) return &node_at(cell->slot).entry;
  if (full()) {
    ++insert_failures_;
    return nullptr;
  }
  if (gate != nullptr && !gate(gate_ctx)) return nullptr;
  if (wheel_.empty()) wheel_.resize(wheel_mask_ + 1);

  const std::uint32_t slot = take_slot();
  Node& node = node_at(slot);
  node.key = key;
  node.entry.state.last_active = now;
  node.entry.table_slot = slot;
  index_.insert(Cell{static_cast<std::uint32_t>(h), slot});
  // Conservative first wheel visit: the entry's TTL may shrink to min_ttl_
  // via direct state mutation before the first sweep sees it; the visit
  // recomputes the exact deadline and re-queues.
  wheel_link(slot, bucket_of(now + min_ttl_));
  return &node.entry;
}

bool SessionTable::erase(const SessionKey& key) {
  const Cell* cell = index_cell(key, hash_of(key));
  if (cell == nullptr) return false;
  const std::uint32_t slot = cell->slot;
  index_.erase(cell);
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
      if (on_evict) on_evict(node.key, node.entry);
      index_.erase(index_.find(hash_of(node.key), [slot](const Cell& cell) {
        return cell.slot == slot;
      }));
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
