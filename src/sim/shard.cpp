#include "src/sim/shard.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/network.h"

namespace nezha::sim {

namespace {
// Per-(src, dst) token ring capacity. The largest backlog one pair has
// held at a snapshot on the 10240-vSwitch macro is 380 tokens; a larger
// exchange spills to the overflow vector, which restores order by seq.
constexpr std::size_t kRingCapacity = 512;
// Seeds the fixed source-shard merge permutation.
constexpr std::uint64_t kMergeSeed = 0x5eedfab1ccafeULL;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Which shard's advance phase (if any) the current thread is inside. Lets
// schedule_fenced tell a mid-epoch registration (stage per shard, assign
// the global sequence at the barrier drain) from a quiescent one (assign
// immediately). Keyed by engine pointer so nested engines cannot alias.
thread_local const void* tls_engine = nullptr;
thread_local std::uint32_t tls_shard = 0;
}  // namespace

SpscTokenRing::SpscTokenRing(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity == 0 ? 1 : capacity);
  buf_.resize(cap);
  mask_ = cap - 1;
}

void SpscTokenRing::push(ShardToken tok) {
  tok.seq = next_seq_++;
  const std::uint64_t t = tail_.load(std::memory_order_relaxed);
  if (t - head_.load(std::memory_order_acquire) > mask_) {
    // Ring momentarily full: spill. The consumer takes the batch wholesale
    // at the next quiescent barrier and restores order by seq.
    overflow_.push_back(std::move(tok));
    return;
  }
  buf_[t & mask_] = std::move(tok);
  tail_.store(t + 1, std::memory_order_release);
}

ShardToken SpscTokenRing::pop() {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  ShardToken tok = std::move(buf_[h & mask_]);
  head_.store(h + 1, std::memory_order_release);
  return tok;
}

ShardedEngine::ShardedEngine(std::vector<Shard> shards,
                             ShardedEngineConfig config)
    : shards_(std::move(shards)), config_(config) {
  const std::size_t k = shards_.size();
  rings_.reserve(k * k);
  for (std::size_t i = 0; i < k * k; ++i) {
    // A shard never exports to itself: its own ring keeps one slot.
    rings_.emplace_back(i / k == i % k ? 1 : kRingCapacity);
  }
  snap_.assign(k * k, 0);
  staged_.resize(k * k);
  late_.assign(k, 0);
  profile_.assign(k, PhaseProfile{});
  fence_staged_.resize(k);
  next_event_.assign(k, 0);
  xfer_epoch_.assign(k, 0);
  xfer_inflight_.assign(k, 0);
  wait_observers_.resize(k);
  // The fixed injection order of source shards: a permutation drawn once
  // from a constant seed, so the merge schedule is a function of
  // shard_count alone — identical for every thread count.
  merge_order_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    merge_order_[i] = static_cast<std::uint32_t>(i);
  }
  common::Rng rng(kMergeSeed);
  rng.shuffle(merge_order_);
}

void ShardedEngine::map_ip(net::Ipv4Addr ip, std::uint32_t shard,
                           NodeId node) {
  ip_map_.insert(IpCell{ip.value(), true, Remote{shard, node}});
}

const ShardedEngine::Remote* ShardedEngine::lookup_remote(
    net::Ipv4Addr ip) const {
  const IpCell* cell = ip_map_.find(
      net::flow_hash_mix64(ip.value()),
      [&](const IpCell& c) { return c.ip == ip.value(); });
  return cell == nullptr ? nullptr : &cell->remote;
}

void ShardedEngine::export_token(std::uint32_t src_shard,
                                 std::uint32_t dst_shard, ShardToken tok) {
  // Callers are always the thread exclusively driving src_shard (its owner
  // mid-advance, worker 0 inside a fence, or quiescent setup code), so the
  // phase counter needs no synchronization beyond the epoch barriers.
  ++xfer_epoch_[src_shard];
  ring(src_shard, dst_shard).push(std::move(tok));
}

void ShardedEngine::snapshot_inbound(std::uint32_t s) {
  const std::size_t k = shards_.size();
  for (std::uint32_t src = 0; src < k; ++src) {
    if (src == s) continue;
    const std::size_t idx = src * k + s;
    snap_[idx] = rings_[idx].pending();
    if (rings_[idx].overflow_size() != 0) {
      staged_[idx] = rings_[idx].take_overflow();
    }
  }
}

void ShardedEngine::advance_shard(std::uint32_t s, common::TimePoint end) {
  const auto t0 = std::chrono::steady_clock::now();
  tls_engine = this;
  tls_shard = s;
  const std::size_t k = shards_.size();
  EventLoop* loop = shards_[s].loop;
  Network* net = shards_[s].net;
  const common::TimePoint epoch_start = loop->now();
  // Inject last epoch's inbound prefix: sources in the fixed merge order,
  // each source's tokens in production (seq) order — a 2-way merge of the
  // ring prefix and the overflow batch, both individually seq-ascending.
  for (const std::uint32_t src : merge_order_) {
    if (src == s) continue;
    const std::size_t idx = src * k + s;
    SpscTokenRing& r = rings_[idx];
    std::size_t n = snap_[idx];
    std::vector<ShardToken>& ov = staged_[idx];
    std::size_t oi = 0;
    while (n != 0 || oi < ov.size()) {
      bool from_ring;
      if (n == 0) {
        from_ring = false;
      } else if (oi >= ov.size()) {
        from_ring = true;
      } else {
        from_ring = r.front().seq < ov[oi].seq;
      }
      ShardToken tok = from_ring ? r.pop() : std::move(ov[oi]);
      if (from_ring) {
        --n;
      } else {
        ++oi;
      }
      if (tok.at < epoch_start) ++late_[s];
      net->inject_token(std::move(tok));
    }
    ov.clear();
  }
  loop->run_until(end);
  tls_engine = nullptr;
  // Everything previously in s's outbound rings was snapshotted at this
  // epoch's start and injected by the consumers during this same phase, so
  // what remains in flight is exactly this phase's exports. Published to
  // the other workers by the post-advance barrier.
  xfer_inflight_[s] = xfer_epoch_[s];
  xfer_epoch_[s] = 0;
  profile_[s].advance_ns += ns_between(t0, std::chrono::steady_clock::now());
}

void ShardedEngine::schedule_fenced(common::TimePoint due,
                                    std::function<void()> fn) {
  if (tls_engine == static_cast<const void*>(this)) {
    // Mid-epoch, on a shard's worker thread (e.g. a monitor continuation
    // or a crash callback firing inside an advance phase). The global
    // sequence is assigned at the barrier drain, in the fixed merge order,
    // so it cannot depend on wall-clock interleaving across workers.
    fence_staged_[tls_shard].push_back(Fence{due, 0, std::move(fn)});
    return;
  }
  // Quiescent context: setup code between windows, or another fenced
  // section's body. Sequence assignment here is already deterministic.
  Fence f{due, fence_seq_++, std::move(fn)};
  if (trace_) {
    trace_(FenceTracePoint{false, shards_.empty() ? 0 : shards_[0].loop->now(),
                           f.due, f.seq});
  }
  const auto pos = std::upper_bound(
      fences_.begin(), fences_.end(), f, [](const Fence& a, const Fence& b) {
        return a.due != b.due ? a.due < b.due : a.seq < b.seq;
      });
  fences_.insert(pos, std::move(f));
}

bool ShardedEngine::fence_work_pending(common::TimePoint e) const {
  for (const std::vector<Fence>& st : fence_staged_) {
    if (!st.empty()) return true;
  }
  return !fences_.empty() && fences_.front().due <= e;
}

void ShardedEngine::run_fences(common::TimePoint now) {
  bool drained = false;
  for (const std::uint32_t s : merge_order_) {
    std::vector<Fence>& st = fence_staged_[s];
    for (Fence& f : st) {
      f.seq = fence_seq_++;
      if (trace_) trace_(FenceTracePoint{false, now, f.due, f.seq});
      fences_.push_back(std::move(f));
      drained = true;
    }
    st.clear();
  }
  if (drained) {
    std::stable_sort(fences_.begin(), fences_.end(),
                     [](const Fence& a, const Fence& b) {
                       return a.due != b.due ? a.due < b.due : a.seq < b.seq;
                     });
  }
  // A section's body may register further fences; any it makes due <= now
  // are picked up by this same loop (sorted insertion keeps the order).
  while (!fences_.empty() && fences_.front().due <= now) {
    Fence f = std::move(fences_.front());
    fences_.erase(fences_.begin());
    if (trace_) trace_(FenceTracePoint{true, now, f.due, f.seq});
    f.fn();
    ++fences_run_;
  }
  // Sections schedule loop events and may export tokens; refresh the
  // next-event cache and fold the fence-phase exports into the in-flight
  // totals so a following fast-forward decision cannot jump over either.
  // Every loop is quiescent here and this thread owns them all.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    next_event_[s] = shards_[s].loop->next_event_at();
    xfer_inflight_[s] += xfer_epoch_[s];
    xfer_epoch_[s] = 0;
  }
}

common::TimePoint ShardedEngine::fast_forward_target(
    common::TimePoint e, common::TimePoint t) const {
  if (!config_.fast_forward) return e;
  const common::Duration epoch = config_.epoch < 1 ? 1 : config_.epoch;
  common::TimePoint next_ev = EventLoop::kNoEvent;
  for (const common::TimePoint ne : next_event_) {
    if (ne < next_ev) next_ev = ne;
  }
  if (next_ev <= e + epoch) return e;
  // Any in-flight token must be injected at the very next boundary; the
  // epoch it lands in cannot be elided. Decided from the barrier-published
  // per-source totals, NOT from live ring state: another worker may
  // already be inside snapshot_inbound taking overflow batches while this
  // worker is still here, and all workers must reach the same verdict.
  for (const std::uint64_t n : xfer_inflight_) {
    if (n != 0) return e;
  }
  const common::TimePoint cap = next_ev < t ? next_ev : t;
  if (cap <= e + epoch) return e;
  // Largest boundary strictly below cap: an event AT a boundary belongs to
  // the epoch that ends there, so that epoch must run normally.
  common::TimePoint jump = e + ((cap - e - 1) / epoch) * epoch;
  if (!fences_.empty()) {
    // Jumping ONTO a fence's barrier is fine (the fence phase at the next
    // iteration fires it); jumping past it is not.
    const common::TimePoint due = fences_.front().due;
    const common::TimePoint fence_bar =
        due <= e ? e + epoch : e + ((due - e + epoch - 1) / epoch) * epoch;
    if (fence_bar < jump) jump = fence_bar;
  }
  return jump;
}

void ShardedEngine::run_until(common::TimePoint t, int threads) {
  const std::size_t k = shards_.size();
  if (k == 0) return;
  const common::TimePoint start = shards_[0].loop->now();
  if (t <= start) return;
  const common::Duration epoch = config_.epoch < 1 ? 1 : config_.epoch;
  int w_count = threads < 1 ? 1 : threads;
  if (w_count > static_cast<int>(k)) w_count = static_cast<int>(k);

  // Seed the next-event cache and fold any quiescent-context exports
  // (setup code may have scheduled events or sent cross-shard packets
  // since the last window ended). All loops are quiescent here.
  for (std::uint32_t s = 0; s < k; ++s) {
    next_event_[s] = shards_[s].loop->next_event_at();
    xfer_inflight_[s] += xfer_epoch_[s];
    xfer_epoch_[s] = 0;
  }

  // One loop for every thread count, including 1: each iteration's branch
  // (fence / fast-forward / normal epoch) is decided from state that is
  // identical across workers at the barrier, so all workers always take
  // the same path and results cannot depend on w_count.
  std::barrier<> bar(w_count);
  auto work = [&](std::uint32_t w) {
    // Fixed shard→thread mapping: shard s is always driven by worker
    // s % w_count, epoch after epoch.
    for (common::TimePoint e = start; e < t;) {
      if (fence_work_pending(e)) {
        // All workers evaluated the predicate against the same
        // barrier-synchronized state, so all of them are here. Park first:
        // run_fences mutates the very state the predicate reads, and a
        // worker still on its way in must not observe the drain.
        bar.arrive_and_wait();
        // Quiesce: worker 0 drains + executes while everyone else parks.
        if (w == 0) {
          const auto f0 = std::chrono::steady_clock::now();
          run_fences(e);
          fence_ns_ += ns_between(f0, std::chrono::steady_clock::now());
          ++fence_barriers_;
        }
        bar.arrive_and_wait();
      }
      const common::TimePoint jump = fast_forward_target(e, t);
      if (jump > e) {
        // Nothing can happen before `jump`: teleport the lockstep clock.
        // run_until executes no events here (jump < every next event) —
        // it only advances each loop's now.
        for (std::uint32_t s = w; s < k; s += w_count) {
          const auto j0 = std::chrono::steady_clock::now();
          shards_[s].loop->run_until(jump);
          profile_[s].fast_forward_ns +=
              ns_between(j0, std::chrono::steady_clock::now());
        }
        if (w == 0) {
          epochs_skipped_ += static_cast<std::uint64_t>((jump - e) / epoch);
          ++ff_jumps_;
        }
        bar.arrive_and_wait();
        e = jump;
        continue;
      }
      const common::TimePoint end = e + epoch < t ? e + epoch : t;
      for (std::uint32_t s = w; s < k; s += w_count) {
        const auto s0 = std::chrono::steady_clock::now();
        snapshot_inbound(s);
        profile_[s].snapshot_ns +=
            ns_between(s0, std::chrono::steady_clock::now());
      }
      const auto t0 = std::chrono::steady_clock::now();
      bar.arrive_and_wait();
      const auto t1 = std::chrono::steady_clock::now();
      for (std::uint32_t s = w; s < k; s += w_count) {
        advance_shard(s, end);
        next_event_[s] = shards_[s].loop->next_event_at();
      }
      const auto t2 = std::chrono::steady_clock::now();
      bar.arrive_and_wait();
      const auto t3 = std::chrono::steady_clock::now();
      const std::uint64_t wait_ns =
          ns_between(t0, t1) + ns_between(t2, t3);
      for (std::uint32_t s = w; s < k; s += w_count) {
        ++profile_[s].epochs;
        profile_[s].barrier_wait_ns += wait_ns;
        if (wait_observers_[s]) {
          wait_observers_[s](static_cast<double>(wait_ns) * 1e-3);
        }
      }
      if (w == 0) ++epochs_run_;
      e = end;
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(w_count) - 1);
  for (int w = 1; w < w_count; ++w) {
    pool.emplace_back(work, static_cast<std::uint32_t>(w));
  }
  work(0);
  for (std::thread& th : pool) th.join();
  // Fences due exactly at `t` (or staged during the final epoch) get their
  // barrier here — run_until's contract is "everything due <= t ran".
  // Counted as a quiesce point like the in-loop barriers: one per
  // run_until call, so the count stays thread- and run-invariant.
  const auto f0 = std::chrono::steady_clock::now();
  run_fences(t);
  fence_ns_ += ns_between(f0, std::chrono::steady_clock::now());
  ++fence_barriers_;
}

std::uint64_t ShardedEngine::tokens_pending() const {
  std::uint64_t n = 0;
  for (const SpscTokenRing& r : rings_) {
    n += r.pending() + r.overflow_size();
  }
  for (const auto& batch : staged_) n += batch.size();
  return n;
}

std::uint64_t ShardedEngine::late_tokens() const {
  std::uint64_t n = 0;
  for (const std::uint64_t v : late_) n += v;
  return n;
}

}  // namespace nezha::sim
