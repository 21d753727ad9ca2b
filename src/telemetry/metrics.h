// Metrics registry: named interned counters, pull-gauges and fixed-bucket
// histograms, plus a periodic sampler that records deterministic time-series
// snapshots into preallocated storage and emits them as JSON.
//
// Hot-path contract: add()/observe() are array operations on interned ids —
// no string work, no allocation. The sampler tick only *reads* simulation
// state (gauges are pull functions) and appends to a row buffer whose
// capacity start_sampler() reserves, so telemetry-on steady state stays
// allocation-free and the simulation outcome is bit-identical to a
// telemetry-off run.
//
// Determinism: series are ordered by registration, sampler ticks by virtual
// time, and the JSON writer formats numbers with fixed printf conversions —
// two same-seed runs produce byte-identical output.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/sim/event_loop.h"

namespace nezha::telemetry {

class MetricsRegistry {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalidId = 0xffffffffu;

  // ---- registration (cold; idempotent by name) ----
  Id counter(std::string name);
  /// Pull-gauge: `fn` is invoked once per sampler tick; it must read
  /// simulation state without mutating it.
  Id gauge(std::string name, std::function<double()> fn);
  Id histogram(std::string name, double lo, double hi, std::size_t buckets);

  Id find_counter(std::string_view name) const;
  Id find_gauge(std::string_view name) const;
  Id find_histogram(std::string_view name) const;

  // ---- hot path ----
  void add(Id c, std::uint64_t by = 1) { counters_[c].value += by; }
  void observe(Id h, double x) { hists_[h].dist.add(x); }

  // ---- reads ----
  std::uint64_t counter_value(Id c) const { return counters_[c].value; }
  std::uint64_t hist_count(Id h) const { return hists_[h].dist.count(); }
  double hist_mean(Id h) const { return hists_[h].dist.mean(); }
  /// Interpolated quantile (p in [0,100]) from the fixed buckets, clamped
  /// to the exact observed [min, max].
  double hist_quantile(Id h, double p) const {
    return hists_[h].dist.percentile(p);
  }
  /// Raw bucket access for consumers (SLO tracker) that window histogram
  /// deltas between sampler ticks without re-deriving quantiles downstream.
  const common::Histogram& hist_data(Id h) const {
    return *hists_[h].dist.histogram();
  }

  std::size_t counter_count() const { return counters_.size(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  std::string_view gauge_name(Id g) const { return gauges_[g].name; }

  // ---- sampler ----
  /// Starts the periodic snapshot series on `loop`. The series set is
  /// frozen at this call (counters/gauges registered later are still
  /// readable and appear in the JSON footer, but not in the time series);
  /// row capacity for `max_samples` ticks is reserved here, so the tick
  /// itself never allocates and memory is committed only as rows are
  /// written. Ticks beyond max_samples are counted as dropped instead of
  /// growing memory.
  void start_sampler(sim::EventLoop& loop, common::Duration period,
                     std::size_t max_samples);
  void stop_sampler();
  std::size_t samples_taken() const { return rows_used_; }
  std::uint64_t dropped_ticks() const { return dropped_ticks_; }

  /// Most recent sampled value of a gauge (0 when no tick yet). Benches
  /// read these instead of keeping private accumulators. Values stay fresh
  /// even after the row store fills: every tick refreshes a scratch row and
  /// gauges are invoked exactly once per tick (some gauges — e.g. the CPU
  /// utilization sampler — advance an internal checkpoint when read).
  double last_sample_gauge(Id g) const;

  /// Called at the end of every sampler tick (including dropped ticks),
  /// after the scratch row is filled — the SLO tracker's subscription
  /// point. Single observer; set before start_sampler().
  void set_tick_observer(std::function<void(common::TimePoint)> fn) {
    tick_observer_ = std::move(fn);
  }

  /// Appends an extra top-level JSON section emitted by write_json just
  /// before the closing brace. `writer` must append one JSON value and be
  /// deterministic. Sections appear in registration order.
  void add_json_section(std::string name,
                        std::function<void(std::string&)> writer);

  /// Deterministic JSON dump of the time series + final counter values +
  /// histogram buckets/percentiles (schema documented in README.md).
  void write_json(std::ostream& os) const;

 private:
  struct CounterSlot {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSlot {
    std::string name;
    std::function<double()> fn;
  };
  struct HistSlot {
    std::string name;
    common::Percentiles dist;  // always bounded
  };

  struct JsonSection {
    std::string name;
    std::function<void(std::string&)> writer;
  };

  void tick(common::TimePoint now);

  std::vector<CounterSlot> counters_;
  std::vector<GaugeSlot> gauges_;
  std::vector<HistSlot> hists_;
  std::vector<JsonSection> sections_;
  std::function<void(common::TimePoint)> tick_observer_;

  // Sampled row layout: [t_ns, counters[0..series_counters_),
  // gauges[0..series_gauges_)], all as double.
  std::vector<double> rows_;
  std::vector<double> last_row_;  // scratch row; refreshed every tick
  bool have_sample_ = false;
  std::size_t row_width_ = 0;
  std::size_t series_counters_ = 0;
  std::size_t series_gauges_ = 0;
  std::size_t rows_used_ = 0;
  std::size_t max_rows_ = 0;
  std::uint64_t dropped_ticks_ = 0;
  common::Duration period_ = 0;
  sim::EventLoop* sampler_loop_ = nullptr;
  sim::EventId sampler_id_ = 0;
};

}  // namespace nezha::telemetry
