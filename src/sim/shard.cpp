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
// Seeds the fixed source-shard merge permutation.
constexpr std::uint64_t kMergeSeed = 0x5eedfab1ccafeULL;

std::uint64_t ns_between(std::chrono::steady_clock::time_point a,
                         std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// One worker's phase timers. Adjacent timers share the clock read at their
// common boundary: lap() ends the running interval and starts the next
// with one read, so a phase over k shards costs k + 1 reads, not 2k.
class PhaseClock {
 public:
  PhaseClock() : last_(std::chrono::steady_clock::now()) {}
  /// Ends the running interval here, returning its length, and starts the
  /// next one.
  std::uint64_t lap() {
    const auto now = std::chrono::steady_clock::now();
    const std::uint64_t ns = ns_between(last_, now);
    last_ = now;
    return ns;
  }

 private:
  std::chrono::steady_clock::time_point last_;
};

// Which shard's advance phase (if any) the current thread is inside. Lets
// schedule_fenced tell a mid-epoch registration (stage per shard, assign
// the global sequence at the barrier drain) from a quiescent one (assign
// immediately), and export_token pick the fill side over the drain side.
// Keyed by engine pointer so nested engines cannot alias.
thread_local const void* tls_engine = nullptr;
thread_local std::uint32_t tls_shard = 0;
}  // namespace

ShardedEngine::ShardedEngine(std::vector<Shard> shards,
                             ShardedEngineConfig config)
    : shards_(std::move(shards)), config_(config) {
  if (config_.epoch < 1) config_.epoch = 1;
  const std::size_t k = shards_.size();
  outboxes_.resize(k * k);
  late_.assign(k, 0);
  profile_.assign(k, PhaseProfile{});
  fence_staged_.resize(k);
  next_event_.assign(k, 0);
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
  // Mid-advance, the fill side: dst_shard's worker may be draining the
  // other one right now. Quiescent code appends behind the tokens the last
  // epoch left on the drain side, so push order stays production order.
  Outbox& o = outboxes_[src_shard * shards_.size() + dst_shard];
  const bool mid_epoch = tls_engine == static_cast<const void*>(this);
  o.side[mid_epoch ? parity_ : parity_ ^ 1].push_back(std::move(tok));
}

void ShardedEngine::inject_inbound(std::uint32_t s) {
  Network* net = shards_[s].net;
  const common::TimePoint epoch_start = shards_[s].loop->now();
  for (const std::uint32_t src : merge_order_) {
    if (src == s) continue;
    std::vector<ShardToken>& in =
        outboxes_[src * shards_.size() + s].side[parity_ ^ 1];
    for (ShardToken& tok : in) {
      if (tok.at < epoch_start) ++late_[s];
      net->inject_token(std::move(tok));
    }
    in.clear();
  }
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
  fences_.push_back(std::move(f));
  std::push_heap(fences_.begin(), fences_.end(), fence_after);
}

bool ShardedEngine::fence_work_pending(common::TimePoint e) const {
  for (const std::vector<Fence>& st : fence_staged_) {
    if (!st.empty()) return true;
  }
  return !fences_.empty() && fences_.front().due <= e;
}

void ShardedEngine::run_fences(common::TimePoint now) {
  for (const std::uint32_t s : merge_order_) {
    std::vector<Fence>& st = fence_staged_[s];
    for (Fence& f : st) {
      f.seq = fence_seq_++;
      if (trace_) trace_(FenceTracePoint{false, now, f.due, f.seq});
      fences_.push_back(std::move(f));
      std::push_heap(fences_.begin(), fences_.end(), fence_after);
    }
    st.clear();
  }
  // A section's body may register further fences; any it makes due <= now
  // are picked up by this same loop ((due, seq) is a total order, so the
  // heap yields exactly the sorted order).
  while (!fences_.empty() && fences_.front().due <= now) {
    std::pop_heap(fences_.begin(), fences_.end(), fence_after);
    Fence f = std::move(fences_.back());
    fences_.pop_back();
    if (trace_) trace_(FenceTracePoint{true, now, f.due, f.seq});
    f.fn();
    ++fences_run_;
  }
}

common::TimePoint ShardedEngine::fast_forward_target(
    common::TimePoint e, common::TimePoint t) const {
  if (!config_.fast_forward) return e;
  const common::Duration epoch = config_.epoch;
  common::TimePoint next_ev = EventLoop::kNoEvent;
  for (const common::TimePoint ne : next_event_) {
    next_ev = std::min(next_ev, ne);
  }
  const common::TimePoint cap = next_ev < t ? next_ev : t;
  if (cap <= e + epoch) return e;
  // A waiting token is injected at the very next epoch start, so that
  // epoch cannot be elided. Every worker is parked, so the outboxes hold
  // still, and the fill sides are empty.
  for (const Outbox& o : outboxes_) {
    if (!o.side[parity_ ^ 1].empty()) return e;
  }
  // Largest boundary strictly below cap: an event AT a boundary belongs to
  // the epoch that ends there, so that epoch must run normally.
  common::TimePoint jump = e + ((cap - e - 1) / epoch) * epoch;
  if (!fences_.empty()) {
    // Jumping ONTO a fence's barrier is fine (the fence runs there before
    // any epoch does); jumping past it is not.
    const common::TimePoint due = fences_.front().due;
    const common::TimePoint fence_bar =
        due <= e ? e + epoch : e + ((due - e + epoch - 1) / epoch) * epoch;
    if (fence_bar < jump) jump = fence_bar;
  }
  return jump;
}

common::TimePoint ShardedEngine::between_epochs(common::TimePoint e,
                                                common::TimePoint t,
                                                std::uint64_t& spent_ns) {
  spent_ns = 0;
  while (e < t) {
    if (fence_work_pending(e)) {
      PhaseClock clock;
      run_fences(e);
      // Sections schedule loop events; the jump below must see them.
      for (std::uint32_t s = 0; s < shards_.size(); ++s) {
        next_event_[s] = shards_[s].loop->next_event_at();
      }
      const std::uint64_t ns = clock.lap();
      fence_ns_ += ns;
      spent_ns += ns;
      ++fence_barriers_;
    }
    const common::TimePoint jump = fast_forward_target(e, t);
    if (jump == e) break;
    // Nothing can happen before `jump`: teleport every loop's clock.
    // run_until executes no events here (jump < every next event).
    PhaseClock clock;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      shards_[s].loop->run_until(jump);
      const std::uint64_t ns = clock.lap();
      profile_[s].fast_forward_ns += ns;
      spent_ns += ns;
    }
    epochs_skipped_ += static_cast<std::uint64_t>((jump - e) / config_.epoch);
    ++ff_jumps_;
    e = jump;
  }
  return e;
}

void ShardedEngine::run_until(common::TimePoint t, int threads) {
  const std::size_t k = shards_.size();
  if (k == 0) return;
  if (t <= shards_[0].loop->now()) return;
  const common::Duration epoch = config_.epoch;
  int w_count = threads < 1 ? 1 : threads;
  if (w_count > static_cast<int>(k)) w_count = static_cast<int>(k);

  // Setup code may have scheduled events since the last window ended.
  for (std::uint32_t s = 0; s < k; ++s) {
    next_event_[s] = shards_[s].loop->next_event_at();
  }
  // The epoch [e, end) every worker runs next, and the wall-clock the
  // fences and jumps before it took. Written only by between_epochs: here,
  // before any worker starts, and in the barrier's completion step, which
  // runs once per epoch on whichever worker arrives last while the others
  // are parked. So every worker reads the same values and takes the same
  // path, whatever w_count is.
  std::uint64_t step_ns = 0;
  common::TimePoint e = between_epochs(shards_[0].loop->now(), t, step_ns);
  common::TimePoint end = e + epoch < t ? e + epoch : t;
  auto complete = [&]() noexcept {
    ++epochs_run_;
    parity_ ^= 1;
    e = between_epochs(end, t, step_ns);
    end = e + epoch < t ? e + epoch : t;
  };
  std::barrier bar(w_count, complete);
  auto work = [&](std::uint32_t w) {
    // Fixed shard→thread mapping: shard s is always driven by worker
    // s % w_count, epoch after epoch.
    PhaseClock clock;
    while (e < t) {
      for (std::uint32_t s = w; s < k; s += w_count) {
        tls_engine = this;
        tls_shard = s;
        inject_inbound(s);
        profile_[s].snapshot_ns += clock.lap();
        shards_[s].loop->run_until(end);
        tls_engine = nullptr;
        next_event_[s] = shards_[s].loop->next_event_at();
        profile_[s].advance_ns += clock.lap();
      }
      bar.arrive_and_wait();
      const std::uint64_t parked = clock.lap();
      const std::uint64_t wait_ns = parked > step_ns ? parked - step_ns : 0;
      for (std::uint32_t s = w; s < k; s += w_count) {
        ++profile_[s].epochs;
        profile_[s].barrier_wait_ns += wait_ns;
        if (wait_observers_[s]) {
          wait_observers_[s](static_cast<double>(wait_ns) * 1e-3);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(w_count) - 1);
  for (int w = 1; w < w_count; ++w) {
    pool.emplace_back(work, static_cast<std::uint32_t>(w));
  }
  work(0);
  for (std::thread& th : pool) th.join();
  // Fences due exactly at `t` (or staged during the final epoch) run here
  // — run_until's contract is "everything due <= t ran". Counted as a
  // quiesce point like those between epochs: one per run_until call, so
  // the count stays thread- and run-invariant.
  PhaseClock clock;
  run_fences(t);
  fence_ns_ += clock.lap();
  ++fence_barriers_;
}

std::uint64_t ShardedEngine::tokens_pending() const {
  std::uint64_t n = 0;
  for (const Outbox& o : outboxes_) n += o.side[0].size() + o.side[1].size();
  return n;
}

std::uint64_t ShardedEngine::late_tokens() const {
  std::uint64_t n = 0;
  for (const std::uint64_t v : late_) n += v;
  return n;
}

}  // namespace nezha::sim
