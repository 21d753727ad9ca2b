// Telemetry hub: the single handle the simulation components hold.
//
// Owns the flight recorder and the metrics registry, plus the packet-id
// stamper. Components keep a `Hub*` (null when telemetry is disabled) and
// guard every record site with one pointer test — with telemetry off the
// datapath pays exactly that branch and nothing else.
//
// Packet-id stamping: Packet::id defaults to 0 and nothing in the
// simulation assigns it except the health monitor, whose probe ids are
// small integers starting at 1. The hub therefore hands out ids from
// 2^32 upward — collision-free with probes — and only to packets that do
// not already carry an id, so an id assigned at the VM edge survives
// encap, the BE→FE detour, and decap unchanged.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "src/common/time.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/slo.h"

namespace nezha::net {
struct Packet;
}

namespace nezha::telemetry {

struct TelemetryConfig {
  bool enabled = false;       // master switch; off => Testbed wires no Hub
  bool trace = true;          // flight recorder on (metrics stay on always)
  std::size_t events_per_node = 1 << 14;  // ring capacity per node
  common::Duration sample_period = common::milliseconds(100);
  std::size_t max_samples = 1024;  // time-series rows preallocated
  SloConfig slo;                   // thresholds for the in-sim SLO tracker
};

class Hub {
 public:
  Hub(std::size_t num_nodes, const TelemetryConfig& cfg);

  /// Hot path: appends to the flight recorder when tracing is enabled.
  void record(TraceEvent e) {
    if (trace_on_) recorder_.record(e);
  }

  /// Assigns a globally unique packet id (from 2^32 up, clear of the
  /// monitor's probe ids) unless the packet already has one. Returns the
  /// packet's id either way.
  std::uint64_t stamp(net::Packet& pkt);

  /// Sharded testbeds give each shard's hub a disjoint id stream so a
  /// packet stamped on one shard never collides with another's (stream s
  /// hands out ids from 2^32 + s * 2^40). Call before any stamping.
  void set_packet_id_stream(std::uint32_t stream) {
    next_packet_id_ = (std::uint64_t{1} << 32) +
                      (static_cast<std::uint64_t>(stream) << 40);
  }

  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  MetricsRegistry& metrics() { return metrics_; }

  void start_sampler(sim::EventLoop& loop) {
    metrics_.start_sampler(loop, cfg_.sample_period, cfg_.max_samples);
  }
  void stop_sampler() { metrics_.stop_sampler(); }

  /// Constructs the SLO tracker against the current registry contents —
  /// call after every gauge/histogram is registered and before
  /// start_sampler(). No-op when cfg.slo.enabled is false.
  void enable_slo(const SloWiring& wiring) {
    if (cfg_.slo.enabled && slo_ == nullptr) {
      slo_ = std::make_unique<SloTracker>(*this, cfg_.slo, wiring);
    }
  }
  SloTracker* slo() { return slo_.get(); }
  const SloTracker* slo() const { return slo_.get(); }

  /// Time-series + counters + histograms as JSON (see README schema).
  void write_json(std::ostream& os) const { metrics_.write_json(os); }
  /// Binary flight-recorder dump (see FlightRecorder::dump).
  void dump_trace(std::ostream& os) const { recorder_.dump(os); }

 private:
  TelemetryConfig cfg_;
  FlightRecorder recorder_;
  MetricsRegistry metrics_;
  std::unique_ptr<SloTracker> slo_;
  bool trace_on_;
  std::uint64_t next_packet_id_;
};

}  // namespace nezha::telemetry
