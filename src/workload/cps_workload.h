// TCP_CRR-style connection workload (§6.2.1): a client VM opens short-lived
// TCP connections to a server VM as fast as the configured offered load
// allows; each connection is a real SYN / SYN-ACK / ACK / FIN exchange
// through the simulated vSwitches, with both guest kernels modeled.
//
// The measured completed-connections-per-second is the paper's CPS metric;
// connect latency (SYN sent → SYN-ACK delivered to the client VM) is the
// latency metric of Fig 12.
#pragma once

#include <cstdint>

#include "src/common/flat_table.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/testbed.h"
#include "src/net/five_tuple.h"
#include "src/workload/vm_model.h"

namespace nezha::workload {

struct CpsWorkloadConfig {
  /// Offered load: connection attempts per second (Poisson arrivals).
  /// Ignored when `concurrency` > 0.
  double attempts_per_sec = 50000.0;
  /// Closed-loop mode (netperf TCP_CRR): keep this many connections in
  /// flight, starting a new one the moment one completes (or gives up).
  /// Rides the system at capacity without retry-driven collapse.
  int concurrency = 0;
  VmKernelConfig client_kernel;
  VmKernelConfig server_kernel;
  std::uint16_t base_port = 2000;
  /// When > 0, per-connection timers (kernel-admit completions, SYN RTOs,
  /// give-ups) are kept in a workload-local heap and drained by one event
  /// loop entry per window multiple, instead of one scheduled closure per
  /// timer — the connection-setup analogue of the datapath burst windows
  /// (DESIGN.md §11). Timers fire at their deadline rounded up to the
  /// window, so 0 (default) preserves exact per-timer event timing.
  common::Duration timer_window = 0;
  std::uint64_t seed = 42;
};

/// Two halves that meet only through packets, so the endpoints may sit on
/// any shards. The client half (attempts, the connection table, the client
/// kernel, SYN/RTO/give-up/re-attempt timers, completions, latency) runs on
/// the client vSwitch's loop; the server half (the server kernel, SYN-ACK
/// timers, the foreign-reply pool) on the server's. Each takes its VM's
/// packets from its vNIC's adapter sink; they share only read-only config.
class CpsWorkload {
 public:
  /// Both endpoints must already exist: vNIC `client_vnic` on switch
  /// `client_switch`, `server_vnic` on `server_switch`, same VPC, each on
  /// its own adapter (not a §7.4 child).
  CpsWorkload(core::Testbed& bed, std::size_t client_switch,
              tables::VnicId client_vnic, std::size_t server_switch,
              tables::VnicId server_vnic, CpsWorkloadConfig config = {});

  /// Starts generating attempts; runs until stop() or forever.
  void start();
  void stop() { running_ = false; }

  /// Changes the offered load on the fly (used by ramp scripts, Fig 11).
  void set_attempts_per_sec(double rate) { config_.attempts_per_sec = rate; }

  // --- results ---
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t client_kernel_rejects() const {
    return client_kernel_.rejected();
  }
  std::uint64_t server_kernel_rejects() const {
    return server_kernel_.rejected();
  }
  /// Names the window [t0, t1) whose completed connections window_cps()
  /// reports. Completions are counted as they land, not kept, so the
  /// window must be named before t0 (throws std::logic_error otherwise).
  void measure_window(common::TimePoint t0, common::TimePoint t1);
  /// Completed connections per second over the named window.
  double window_cps() const;
  const common::Percentiles& connect_latency_us() const { return latency_; }


 private:
  /// Tracked connection, stored inline in a common::FlatTable keyed by the
  /// 32-bit port pair (see ports_key). `ports` doubles as the empty marker:
  /// 0 = empty (workload ports are always ≥ 1024<<16, so it never collides
  /// with a real key). No node allocation per connection — the table array
  /// is the only storage, and it only grows when the number of
  /// simultaneously tracked connections does. Entries move on erase, so
  /// Conn pointers are only valid until the next table mutation.
  struct Conn {
    std::uint32_t ports = 0;
    std::uint8_t established = 0;
    std::uint8_t retries = 0;
    common::TimePoint syn_sent = 0;
  };
  struct ConnTraits {
    static bool empty(const Conn& c) { return c.ports == 0; }
    static std::uint64_t hash(const Conn& c) {
      return net::flow_hash_mix64(c.ports);
    }
  };

  Conn* conn_find(std::uint32_t ports);
  /// The connection on `ports`, reset to a fresh one if it was tracked.
  Conn* conn_insert(std::uint32_t ports);

  /// Coalesced per-connection timer (timer_window > 0): a POD entry in a
  /// per-loop store drained by one event-loop entry per window.
  /// Every class has monotone deadlines (a fixed offset from the monotone
  /// sim clock, or a FIFO kernel's completion times), so the store is a set
  /// of per-class FIFO rings — O(1) push/pop at any depth, unlike a heap
  /// that sifts past thousands of not-yet-expired RTO entries — and the
  /// drain is a K-way merge of the ring fronts on (at, seq), reproducing
  /// the event loop's schedule-order tie-break.
  enum TimerKind : std::uint8_t {
    kTimerSendSyn,    // client kernel admitted the connect; emit the SYN
    kTimerSynAck,     // server kernel accepted; emit the SYN-ACK
    kTimerRto,        // SYN retransmission backoff expired
    kTimerGiveUp,     // final RTO after max retries; drop the tracking entry
    kTimerReattempt,  // client kernel was full; retry the attempt
  };
  struct Timer {
    common::TimePoint at;
    std::uint64_t seq;
    std::uint32_t ports;
    std::uint8_t kind;
    std::uint8_t attempt;
  };
  static bool timer_later(const Timer& a, const Timer& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
  /// Power-of-two circular buffer; grows only when the in-flight timer
  /// population of its class does.
  struct TimerQ {
    std::vector<Timer> buf;
    std::size_t head = 0;
    std::size_t count = 0;
    const Timer& front() const { return buf[head]; }
    void pop() {
      head = (head + 1) & (buf.size() - 1);
      --count;
    }
  };
  /// One loop's coalesced timers: rings indexed [kSendSyn, kSynAck, kGiveUp,
  /// kReattempt, rto level 0, 1, ...] and one drain event at the quantized
  /// earliest front (re-armed earlier for an earlier timer; O(1) cancel).
  struct TimerRings {
    explicit TimerRings(sim::EventLoop& l) : loop(&l) {}
    sim::EventLoop* loop;
    std::vector<TimerQ> qs;
    std::uint64_t seq = 0;
    sim::EventId event = 0;
    common::TimePoint event_at = -1;
    bool draining = false;
  };
  void timer_push(std::uint8_t kind, common::TimePoint at,
                  std::uint32_t ports, std::uint8_t attempt = 0);
  void timer_fire(const Timer& t);
  void timer_drain(std::size_t rings);
  static void timer_drain_thunk(void* self, std::uint64_t rings) {
    static_cast<CpsWorkload*>(self)->timer_drain(rings);
  }

  /// Deferred SYN-ACK for a rewritten (e.g. NAT'd) reply tuple: the
  /// full 5-tuple doesn't fit a 16-byte closure capture, so the tuple
  /// parks in a free-listed pool slot and the event carries the slot id
  /// through the raw function-pointer path — identical event timing and
  /// ordering to the closure it replaces, zero steady-state allocations.
  void schedule_foreign_synack(common::TimePoint at,
                               const net::FiveTuple& reply);
  static void foreign_synack_thunk(void* self, std::uint64_t slot);

  void schedule_next_attempt();
  void attempt();
  /// Closed-loop slot release: instead of immediately attempting a new
  /// connection per completion, freed slots join the next admission round —
  /// one scheduled event shared by every slot freed at this timestamp
  /// (burst deliveries free many at once).
  void release_slot();
  void admission_round();
  void send_syn(const net::FiveTuple& ft, int attempt);
  void on_client_delivery(const net::Packet& pkt);
  void on_server_delivery(const net::Packet& pkt);
  net::FiveTuple next_tuple();
  void send_synack(const net::FiveTuple& reply);

  /// Every workload tuple is client_ip -> server_ip over TCP, so a 32-bit
  /// port pair identifies it. Deferred per-connection steps capture this key
  /// instead of the 13-byte FiveTuple: [this, ports] (and even
  /// [this, ports, attempt]) fits std::function's 16-byte inline buffer, so
  /// the handshake schedules no heap allocations for its closures.
  static std::uint32_t ports_key(const net::FiveTuple& ft) {
    return static_cast<std::uint32_t>(ft.src_port) << 16 | ft.dst_port;
  }
  net::FiveTuple client_tuple(std::uint32_t ports) const {
    return net::FiveTuple{client_ip_, server_ip_,
                          static_cast<std::uint16_t>(ports >> 16),
                          static_cast<std::uint16_t>(ports & 0xffff),
                          net::IpProto::kTcp};
  }

  // Shared by both halves; read-only while the workload runs.
  sim::EventLoop& client_loop_;
  sim::EventLoop& server_loop_;
  vswitch::VSwitch& client_switch_;
  vswitch::VSwitch& server_switch_;
  tables::VnicId client_vnic_;
  tables::VnicId server_vnic_;
  net::Ipv4Addr client_ip_;
  net::Ipv4Addr server_ip_;
  std::uint32_t vpc_;
  CpsWorkloadConfig config_;
  /// The client loop's timers, then the server loop's; halves on one loop
  /// share [0], so a single-loop run keeps one (at, seq) order.
  TimerRings timers_[2] = {TimerRings(client_loop_), TimerRings(server_loop_)};

  // Server half: runs on server_loop_.
  VmKernel server_kernel_;
  // Parked reply tuples for in-flight foreign SYN-ACKs (free-listed; grows
  // only to the peak number simultaneously deferred).
  std::vector<net::FiveTuple> foreign_synacks_;
  std::vector<std::uint32_t> foreign_free_;

  // Client half: runs on client_loop_.
  common::Rng rng_;
  VmKernel client_kernel_;
  std::uint32_t conn_seq_ = 0;
  common::FlatTable<Conn, ConnTraits> conns_;  // see Conn
  // Closed-loop admission batching state.
  int pending_slots_ = 0;
  bool round_scheduled_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  // Bounded estimator (10us buckets over [0, 20ms]): fleet-scale scenarios
  // push millions of connects through these, so per-sample buffering is out.
  // Mean/min/max stay exact; percentiles interpolate within one bucket.
  common::Percentiles latency_ =
      common::Percentiles::bounded(0.0, 20000.0, 2000);
  // The measured window [window_start_, window_end_) and its completions.
  common::TimePoint window_start_ = 0;
  common::TimePoint window_end_ = 0;
  std::uint64_t window_completed_ = 0;
  bool running_ = false;
};

}  // namespace nezha::workload
