// Discrete-event scheduler with virtual time.
//
// Determinism: events at equal timestamps fire in schedule order (a
// monotonically increasing sequence number breaks ties), so a run is a pure
// function of its inputs and seed.
//
// Storage: callbacks live in a slab of reusable slots; the priority queue
// holds only small POD references (time, seq, slot, generation). That keeps
// heap sift operations cheap (no std::function moves through the heap),
// makes cancel() an O(1) generation-checked flag flip — no tombstone set to
// populate or leak — and gives every slot a stable identity for periodic
// rescheduling. EventIds encode (generation << 32 | slot), so an id from a
// fired or cancelled event can never alias a later event reusing the slot:
// cancel-after-fire and double-cancel are structurally no-ops.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/common/time.h"

namespace nezha::sim {

using EventId = std::uint64_t;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  /// Fast-path callback shape: plain function pointer + context + one word.
  using RawFn = void (*)(void* ctx, std::uint64_t arg);

  common::TimePoint now() const { return now_; }

  /// Schedules cb at absolute time t (>= now). Returns an id for cancel().
  EventId schedule_at(common::TimePoint t, Callback cb);

  /// schedule_at for hot internal call sites: fires fn(ctx, arg) at t with
  /// no std::function construction, move, or destruction on either the
  /// schedule or the fire side. Ordering, ids, and cancel() are identical
  /// to schedule_at — only the callback storage differs.
  EventId schedule_raw_at(common::TimePoint t, RawFn fn, void* ctx,
                          std::uint64_t arg = 0);

  /// Schedules cb after a relative delay (clamped to >= 0).
  EventId schedule_after(common::Duration delay, Callback cb);

  /// Schedules cb every `period` (clamped to >= 1ns), first at now + period,
  /// until cancelled. The returned id stays valid across firings — one
  /// cancel() stops the whole series. Replaces the self-rescheduling
  /// shared_ptr<function> pattern for monitor/aging ticks.
  EventId schedule_periodic(common::Duration period, Callback cb);

  /// Cancels a pending event (or a whole periodic series); O(1) and
  /// harmless if already fired, already cancelled, or unknown.
  void cancel(EventId id);

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= t, then sets now to t. Events later than
  /// t stay queued — cancelled queue heads never cause overshoot.
  void run_until(common::TimePoint t);

  /// Sentinel returned by next_event_at() when no live event is queued.
  static constexpr common::TimePoint kNoEvent =
      std::numeric_limits<common::TimePoint>::max();

  /// Timestamp of the earliest live pending event, or kNoEvent. Pops
  /// cancelled heads first (amortized O(1)), so it mutates the heap: call
  /// it only from the thread that owns this loop, while it is quiescent.
  /// The sharded engine uses it to decide sparse-epoch fast-forward.
  common::TimePoint next_event_at();

  /// Number of scheduled-and-not-yet-fired events (a periodic series counts
  /// as one). Maintained as a live counter — cannot underflow.
  std::size_t pending() const { return live_; }

 private:
  struct Slot {
    Callback cb;
    RawFn raw = nullptr;          // set => fire raw(ctx, arg); cb stays empty
    void* raw_ctx = nullptr;
    std::uint64_t raw_arg = 0;
    std::uint32_t gen = 1;        // bumped on free; stale ids never match
    common::Duration period = -1; // >= 0 marks a periodic slot
    bool armed = false;
  };
  /// POD heap entry; the slab keeps the callback.
  struct QEntry {
    common::TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// (at, seq) is a strict total order (seq is unique), so ANY min-heap over
  /// it pops the exact same event sequence — the container layout is free to
  /// change without touching determinism. A 4-ary heap is half as deep as a
  /// binary one and its four children sit in adjacent cache lines, which
  /// measurably cuts the dependent loads per sift in this pop-heavy loop.
  static bool before(const QEntry& a, const QEntry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  void heap_push(QEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }
  void heap_pop() {
    const QEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      std::size_t min_child = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (before(heap_[c], heap_[min_child])) min_child = c;
      }
      if (!before(heap_[min_child], last)) break;
      heap_[i] = heap_[min_child];
      i = min_child;
    }
    heap_[i] = last;
  }

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Pops cancelled/stale heads; afterwards the head (if any) is live.
  void drop_dead_heads();

  bool fire_next();

  common::TimePoint now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<QEntry> heap_;  // 4-ary min-heap over (at, seq)
};

}  // namespace nezha::sim
