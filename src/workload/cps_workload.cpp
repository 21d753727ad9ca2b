#include "src/workload/cps_workload.h"

#include <algorithm>
#include <stdexcept>

namespace nezha::workload {

namespace {
/// Destination ports cycled to widen the 5-tuple space.
constexpr std::uint16_t kServerPorts = 16;
/// TCP-style SYN retransmission: lost handshake packets (vSwitch overload
/// drops) are retried with exponential backoff, so completed CPS degrades
/// to the bottleneck capacity instead of collapsing.
constexpr int kMaxSynRetries = 8;
constexpr common::Duration kSynRto = common::milliseconds(25);
}  // namespace

CpsWorkload::Conn* CpsWorkload::conn_find(std::uint32_t ports) {
  return conns_.find(ConnTraits::hash(Conn{.ports = ports}),
                     [ports](const Conn& c) { return c.ports == ports; });
}

CpsWorkload::Conn* CpsWorkload::conn_insert(std::uint32_t ports) {
  const Conn fresh{.ports = ports};
  if (Conn* c = conn_find(ports)) {  // reuse (port-space wrap)
    *c = fresh;
    return c;
  }
  return conns_.insert(fresh);
}

CpsWorkload::CpsWorkload(core::Testbed& bed, std::size_t client_switch,
                         tables::VnicId client_vnic,
                         std::size_t server_switch,
                         tables::VnicId server_vnic, CpsWorkloadConfig config)
    : client_loop_(bed.loop_of(client_switch)),
      server_loop_(bed.loop_of(server_switch)),
      client_switch_(bed.vswitch(client_switch)),
      server_switch_(bed.vswitch(server_switch)),
      client_vnic_(client_vnic),
      server_vnic_(server_vnic),
      config_(config),
      server_kernel_(config.server_kernel),
      rng_(config.seed),
      client_kernel_(config.client_kernel) {
  const vswitch::Vnic* c = client_switch_.find_vnic(client_vnic);
  const vswitch::Vnic* s = server_switch_.find_vnic(server_vnic);
  if (c == nullptr || s == nullptr) {
    throw std::runtime_error("CpsWorkload: endpoints missing");
  }
  client_ip_ = c->addr().ip;
  server_ip_ = s->addr().ip;
  vpc_ = c->addr().vpc_id;
  client_switch_.set_vm_delivery(
      client_vnic_,
      [this](tables::VnicId, const net::Packet& p) { on_client_delivery(p); });
  server_switch_.set_vm_delivery(
      server_vnic_,
      [this](tables::VnicId, const net::Packet& p) { on_server_delivery(p); });
}

void CpsWorkload::start() {
  running_ = true;
  if (config_.concurrency > 0) {
    for (int i = 0; i < config_.concurrency; ++i) attempt();
  } else {
    schedule_next_attempt();
  }
}

void CpsWorkload::schedule_next_attempt() {
  if (!running_) return;
  const double gap_s = rng_.exponential(1.0 / config_.attempts_per_sec);
  client_loop_.schedule_after(common::from_seconds(gap_s), [this]() {
    attempt();
    schedule_next_attempt();
  });
}

net::FiveTuple CpsWorkload::next_tuple() {
  const std::uint32_t seq = conn_seq_++;
  // Cycle src ports 1024..64511 × a handful of server ports: >10^9 distinct
  // tuples before reuse.
  const auto src_port =
      static_cast<std::uint16_t>(1024 + seq % 63488);
  const auto dst_port = static_cast<std::uint16_t>(
      config_.base_port + (seq / 63488) % kServerPorts);
  return net::FiveTuple{client_ip_, server_ip_, src_port, dst_port,
                        net::IpProto::kTcp};
}

void CpsWorkload::attempt() {
  if (!running_) return;
  ++attempted_;
  // The client kernel must have capacity to even issue the connect().
  const VmKernel::Outcome admit = client_kernel_.admit(client_loop_.now());
  if (!admit.accepted) {
    if (config_.concurrency > 0) {
      // Closed loop: don't lose the slot; retry when the kernel drains.
      if (config_.timer_window > 0) {
        timer_push(kTimerReattempt,
                   client_loop_.now() + common::milliseconds(5), 0);
      } else {
        client_loop_.schedule_after(common::milliseconds(5),
                                    [this]() { attempt(); });
      }
    }
    return;
  }
  const net::FiveTuple ft = next_tuple();
  const std::uint32_t ports = ports_key(ft);
  Conn* c = conn_insert(ports);
  c->syn_sent = client_loop_.now();
  c->established = 0;
  c->retries = 0;
  if (config_.timer_window > 0) {
    timer_push(kTimerSendSyn, admit.done, ports);
  } else {
    client_loop_.schedule_at(
        admit.done, [this, ports]() { send_syn(client_tuple(ports), 0); });
  }
}

void CpsWorkload::release_slot() {
  // Batched closed-loop admission: freed slots accumulate and one round
  // event (at this same timestamp) admits them all, so N completions
  // delivered in one burst share a single scheduling round.
  ++pending_slots_;
  if (round_scheduled_) return;
  round_scheduled_ = true;
  client_loop_.schedule_at(client_loop_.now(), [this]() { admission_round(); });
}

void CpsWorkload::admission_round() {
  round_scheduled_ = false;
  const int n = pending_slots_;
  pending_slots_ = 0;
  for (int i = 0; i < n; ++i) attempt();
}

void CpsWorkload::timer_push(std::uint8_t kind, common::TimePoint at,
                             std::uint32_t ports, std::uint8_t attempt) {
  const std::size_t ri = kind == kTimerSynAck && &server_loop_ != &client_loop_;
  TimerRings& r = timers_[ri];
  if (r.qs.empty()) {
    r.qs.resize(4 + static_cast<std::size_t>(kMaxSynRetries));
  }
  TimerQ& q =
      r.qs[kind == kTimerRto ? 4 + static_cast<std::size_t>(attempt) : kind];
  if (q.count == q.buf.size()) {
    std::vector<Timer> bigger(q.buf.empty() ? 64 : q.buf.size() * 2);
    for (std::size_t i = 0; i < q.count; ++i) {
      bigger[i] = q.buf[(q.head + i) & (q.buf.size() - 1)];
    }
    q.buf = std::move(bigger);
    q.head = 0;
  }
  const std::size_t mask = q.buf.size() - 1;
  // Monotone by construction; clamp defensively so a violation degrades to
  // a slightly later fire, never to ring reordering.
  if (q.count > 0) {
    const common::TimePoint prev = q.buf[(q.head + q.count - 1) & mask].at;
    if (at < prev) at = prev;
  }
  q.buf[(q.head + q.count) & mask] = Timer{at, ++r.seq, ports, kind,
                                           attempt};
  ++q.count;
  if (r.draining) return;  // drain re-arms once, after its loop
  const common::Duration w = config_.timer_window;
  const common::TimePoint fire = (at + w - 1) / w * w;
  if (r.event_at < 0 || fire < r.event_at) {
    if (r.event_at >= 0) r.loop->cancel(r.event);
    r.event = r.loop->schedule_raw_at(fire, &CpsWorkload::timer_drain_thunk,
                                      this, ri);
    r.event_at = fire;
  }
}

void CpsWorkload::timer_fire(const Timer& t) {
  switch (t.kind) {
    case kTimerSendSyn:
      send_syn(client_tuple(t.ports), 0);
      break;
    case kTimerSynAck:
      send_synack(client_tuple(t.ports).reversed());
      break;
    case kTimerRto: {
      Conn* rc = conn_find(t.ports);
      if (rc == nullptr || rc->established != 0) return;
      ++rc->retries;
      send_syn(client_tuple(t.ports), t.attempt + 1);
      break;
    }
    case kTimerGiveUp: {
      Conn* rc = conn_find(t.ports);
      if (rc != nullptr && rc->established == 0) {
        conns_.erase(rc);
        if (config_.concurrency > 0) release_slot();
      }
      break;
    }
    case kTimerReattempt:
      attempt();
      break;
  }
}

void CpsWorkload::timer_drain(std::size_t rings) {
  TimerRings& r = timers_[rings];
  r.draining = true;
  r.event_at = -1;
  const common::TimePoint now = r.loop->now();
  // K-way merge of the ring fronts: fire everything due at `now` in
  // (at, seq) order. Timers pushed by fired handlers (e.g. a SYN's RTO, or
  // a SYN-ACK admission from a synchronous delivery) join their ring
  // mid-loop; if due at `now` they drain in this same pass, in order.
  for (;;) {
    TimerQ* best = nullptr;
    for (TimerQ& q : r.qs) {
      if (q.count == 0 || q.front().at > now) continue;
      if (best == nullptr || timer_later(best->front(), q.front())) {
        best = &q;
      }
    }
    if (best == nullptr) break;
    const Timer t = best->front();
    best->pop();
    timer_fire(t);
  }
  r.draining = false;
  common::TimePoint next = -1;
  for (const TimerQ& q : r.qs) {
    if (q.count > 0 && (next < 0 || q.front().at < next)) {
      next = q.front().at;
    }
  }
  if (next >= 0) {
    const common::Duration w = config_.timer_window;
    const common::TimePoint fire = (next + w - 1) / w * w;
    r.event = r.loop->schedule_raw_at(fire, &CpsWorkload::timer_drain_thunk,
                                      this, rings);
    r.event_at = fire;
  }
}

void CpsWorkload::send_syn(const net::FiveTuple& ft, int attempt) {
  const std::uint32_t ports = ports_key(ft);
  Conn* c = conn_find(ports);
  if (c == nullptr || c->established != 0) return;
  net::Packet syn = net::make_tcp_packet(ft, net::TcpFlags{.syn = true}, 0,
                                         vpc_);
  syn.created_at = client_loop_.now();
  client_switch_.from_vm(client_vnic_, std::move(syn));
  const common::Duration rto = kSynRto << attempt;
  if (attempt >= kMaxSynRetries) {
    // Give up after one final RTO (frees the tracking entry and, in closed
    // loop mode, the concurrency slot).
    if (config_.timer_window > 0) {
      timer_push(kTimerGiveUp, client_loop_.now() + rto, ports);
    } else {
      client_loop_.schedule_after(rto, [this, ports]() {
        Conn* rc = conn_find(ports);
        if (rc != nullptr && rc->established == 0) {
          conns_.erase(rc);
          if (config_.concurrency > 0) release_slot();
        }
      });
    }
    return;
  }
  // Exponential backoff retransmission, as the guest TCP stack would do.
  if (config_.timer_window > 0) {
    timer_push(kTimerRto, client_loop_.now() + rto, ports,
               static_cast<std::uint8_t>(attempt));
  } else {
    client_loop_.schedule_after(rto, [this, ports, attempt]() {
      Conn* rc = conn_find(ports);
      if (rc == nullptr || rc->established != 0) return;
      ++rc->retries;
      send_syn(client_tuple(ports), attempt + 1);
    });
  }
}

void CpsWorkload::on_server_delivery(const net::Packet& pkt) {
  const net::TcpFlags flags = pkt.inner.tcp_flags;
  if (flags.syn && !flags.ack) {
    // Server kernel accepts and replies SYN-ACK when it gets CPU.
    const VmKernel::Outcome admit = server_kernel_.admit(server_loop_.now());
    if (!admit.accepted) return;  // SYN queue overflow: client would retry
    const net::FiveTuple& ft = pkt.inner.ft;
    if (ft.src_ip == client_ip_ && ft.dst_ip == server_ip_ &&
        ft.proto == net::IpProto::kTcp) {
      const std::uint32_t ports = ports_key(ft);
      if (config_.timer_window > 0) {
        timer_push(kTimerSynAck, admit.done, ports);
      } else {
        server_loop_.schedule_at(admit.done, [this, ports]() {
          send_synack(client_tuple(ports).reversed());
        });
      }
    } else {
      // Rewritten (e.g. NAT'd) tuple: keep the exact reply address. The
      // port-pair key can't encode it, so this shape stays on the
      // per-timer event path regardless of timer_window — but with the
      // tuple parked in a pool slot instead of a heap-spilled closure.
      schedule_foreign_synack(admit.done, ft.reversed());
    }
  }
  // Final ACK / FIN handling needs no further server action in this model.
}

void CpsWorkload::schedule_foreign_synack(common::TimePoint at,
                                          const net::FiveTuple& reply) {
  std::uint32_t slot;
  if (!foreign_free_.empty()) {
    slot = foreign_free_.back();
    foreign_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(foreign_synacks_.size());
    foreign_synacks_.emplace_back();
  }
  foreign_synacks_[slot] = reply;
  server_loop_.schedule_raw_at(at, &CpsWorkload::foreign_synack_thunk, this,
                               slot);
}

void CpsWorkload::foreign_synack_thunk(void* self, std::uint64_t slot) {
  auto* w = static_cast<CpsWorkload*>(self);
  const net::FiveTuple reply =
      w->foreign_synacks_[static_cast<std::size_t>(slot)];
  w->foreign_free_.push_back(static_cast<std::uint32_t>(slot));
  w->send_synack(reply);
}

void CpsWorkload::send_synack(const net::FiveTuple& reply) {
  server_switch_.from_vm(
      server_vnic_,
      net::make_tcp_packet(reply, net::TcpFlags{.syn = true, .ack = true}, 0,
                           vpc_));
}

void CpsWorkload::on_client_delivery(const net::Packet& pkt) {
  const net::TcpFlags flags = pkt.inner.tcp_flags;
  if (!(flags.syn && flags.ack)) return;
  const net::FiveTuple ft = pkt.inner.ft.reversed();  // client-oriented
  // The port pair is only a valid key for untranslated workload tuples
  // (the full-tuple equality the old per-connection map gave for free).
  if (ft.src_ip != client_ip_ || ft.dst_ip != server_ip_ ||
      ft.proto != net::IpProto::kTcp) {
    return;
  }
  Conn* c = conn_find(ports_key(ft));
  if (c == nullptr || c->established != 0) return;
  c->established = 1;
  ++completed_;
  const common::TimePoint now = client_loop_.now();
  if (now >= window_start_ && now < window_end_) ++window_completed_;
  latency_.add(common::to_micros(now - c->syn_sent));

  // Complete the handshake, then close with a FIN.
  client_switch_.from_vm(
      client_vnic_, net::make_tcp_packet(ft, net::TcpFlags{.ack = true}, 0,
                                         vpc_));
  client_switch_.from_vm(
      client_vnic_,
      net::make_tcp_packet(ft, net::TcpFlags{.ack = true, .fin = true}, 0,
                           vpc_));
  // Re-find: from_vm can recurse into deliveries that mutate the table.
  if (Conn* again = conn_find(ports_key(ft))) conns_.erase(again);
  if (config_.concurrency > 0) release_slot();
}

void CpsWorkload::measure_window(common::TimePoint t0, common::TimePoint t1) {
  if (t0 < client_loop_.now()) {
    throw std::logic_error("CpsWorkload::measure_window: window already open");
  }
  window_start_ = t0;
  window_end_ = t1;
  window_completed_ = 0;
}

double CpsWorkload::window_cps() const {
  if (window_end_ <= window_start_) return 0.0;
  return static_cast<double>(window_completed_) /
         common::to_seconds(window_end_ - window_start_);
}

}  // namespace nezha::workload
