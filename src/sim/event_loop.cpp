#include "src/sim/event_loop.h"

#include <utility>

#include "src/common/log.h"

namespace nezha::sim {

namespace {

long long loop_now_thunk(void* ctx) {
  return static_cast<long long>(static_cast<const EventLoop*>(ctx)->now());
}

/// Registers the loop as the logger's virtual-clock source for the duration
/// of a run; restores the previous source on exit so nested loops (a
/// callback running its own sub-loop) stamp with the innermost clock.
class LogTimeScope {
 public:
  explicit LogTimeScope(EventLoop* loop) : prev_(common::log_time_source()) {
    common::set_log_time_source({&loop_now_thunk, loop});
  }
  ~LogTimeScope() { common::set_log_time_source(prev_); }
  LogTimeScope(const LogTimeScope&) = delete;
  LogTimeScope& operator=(const LogTimeScope&) = delete;

 private:
  common::LogTimeSource prev_;
};

}  // namespace

std::uint32_t EventLoop::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventLoop::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  s.raw = nullptr;
  s.armed = false;
  s.period = -1;
  ++s.gen;  // ids minted for the old generation go permanently stale
  free_.push_back(slot);
}

EventId EventLoop::schedule_at(common::TimePoint t, Callback cb) {
  if (t < now_) t = now_;  // never schedule into the past
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.armed = true;
  s.period = -1;
  heap_push(QEntry{t, next_seq_++, slot, s.gen});
  ++live_;
  return make_id(slot, s.gen);
}

EventId EventLoop::schedule_raw_at(common::TimePoint t, RawFn fn, void* ctx,
                                   std::uint64_t arg) {
  if (t < now_) t = now_;
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.raw = fn;
  s.raw_ctx = ctx;
  s.raw_arg = arg;
  s.armed = true;
  s.period = -1;
  heap_push(QEntry{t, next_seq_++, slot, s.gen});
  ++live_;
  return make_id(slot, s.gen);
}

EventId EventLoop::schedule_after(common::Duration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(cb));
}

EventId EventLoop::schedule_periodic(common::Duration period, Callback cb) {
  if (period < 1) period = 1;  // a zero period would freeze virtual time
  const std::uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.armed = true;
  s.period = period;
  heap_push(QEntry{now_ + period, next_seq_++, slot, s.gen});
  ++live_;
  return make_id(slot, s.gen);
}

void EventLoop::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.armed) return;  // fired, reused, or double-cancel
  s.armed = false;
  s.cb = nullptr;  // release captures now; slot freed when its entry pops
  --live_;
}

bool EventLoop::fire_next() {
  while (!heap_.empty()) {
    const QEntry top = heap_.front();
    heap_pop();
    Slot& s = slots_[top.slot];
    if (s.gen != top.gen) continue;            // stale reference
    if (!s.armed) {                            // cancelled while queued
      free_slot(top.slot);
      continue;
    }
    now_ = top.at;
    if (s.period >= 0) {
      // Move the callback out for the call: the slab may grow (and
      // reallocate) if the callback schedules new events.
      Callback cb = std::move(s.cb);
      const common::Duration period = s.period;
      cb();
      Slot& after = slots_[top.slot];
      if (after.gen == top.gen && after.armed) {
        after.cb = std::move(cb);
        // Re-arm after the callback ran so the next tick's sequence number
        // orders it behind events the callback itself scheduled (matches
        // the self-rescheduling pattern this API replaced).
        heap_push(QEntry{top.at + period, next_seq_++, top.slot, top.gen});
      } else if (after.gen == top.gen) {
        free_slot(top.slot);  // the callback cancelled its own series
      }
    } else if (s.raw != nullptr) {
      s.armed = false;
      --live_;
      // Copy out before freeing: the callee may schedule and reuse the slot.
      const RawFn fn = s.raw;
      void* ctx = s.raw_ctx;
      const std::uint64_t arg = s.raw_arg;
      free_slot(top.slot);
      fn(ctx, arg);
    } else {
      s.armed = false;
      --live_;
      Callback cb = std::move(s.cb);
      free_slot(top.slot);
      cb();
    }
    return true;
  }
  return false;
}

void EventLoop::drop_dead_heads() {
  while (!heap_.empty()) {
    const QEntry& top = heap_.front();
    const Slot& s = slots_[top.slot];
    if (s.gen == top.gen && s.armed) return;  // live head
    const std::uint32_t slot = top.slot;
    const bool owned = s.gen == top.gen;
    heap_pop();
    if (owned) free_slot(slot);
  }
}

common::TimePoint EventLoop::next_event_at() {
  drop_dead_heads();
  return heap_.empty() ? kNoEvent : heap_.front().at;
}

void EventLoop::run() {
  LogTimeScope scope(this);
  while (fire_next()) {
  }
}

void EventLoop::run_until(common::TimePoint t) {
  LogTimeScope scope(this);
  for (;;) {
    // Look past cancelled heads so a dead entry at <= t never lets an event
    // with a timestamp > t fire (the pre-slab implementation had exactly
    // that bug: fire_next() skipped the cancelled head and executed the
    // next live event regardless of its time).
    drop_dead_heads();
    if (heap_.empty() || heap_.front().at > t) break;
    fire_next();
  }
  if (now_ < t) now_ = t;
}

}  // namespace nezha::sim
