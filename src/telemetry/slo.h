// In-sim SLO tracker: windowed rollups + burn-rate accounting over the
// metrics sampler.
//
// The tracker subscribes to MetricsRegistry sampler ticks (it never runs
// its own timer) and evaluates a fixed rule set against declared
// thresholds:
//
//   * p99 hop-class latency — windowed p99 of `latency.local_rx_us` and
//     `latency.be_rx_us`, computed from per-tick histogram bucket deltas
//     (the window is exactly one sample period).
//   * probe loss — the health monitor's cumulative reply count compared
//     against the probe count from `probe_lag_ticks` ticks ago, so replies
//     still in flight are never counted as lost.
//   * cpu / session-memory headroom — fleet max over the per-vswitch
//     `vs*.cpu_util` / `vs*.session_mem` gauges on this hub's shard.
//
// Every evaluated tick updates per-rule min/max/EWMA and a burn ring (the
// fraction of the last `burn_window` evaluated ticks in breach). A breach
// increments the interned `slo.violations` / `slo.violations.<rule>`
// counters (registered before the sampler starts, so they appear in the
// time series), records a kSloViolation trace event naming the offending
// node, and updates first/last violation sim-times.
//
// Determinism: every input is simulation state sampled at virtual-time
// ticks — no wall clock anywhere — so the `slo` JSON section and the
// violation counters are bit-identical across runs and worker-thread
// counts. Steady-state ticks are allocation-free: all rings and bucket
// shadows are sized at construction.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/telemetry/metrics.h"

namespace nezha::telemetry {

class Hub;

/// Declared SLO thresholds. Defaults are sized for the paper's hop-class
/// latency budget (local_rx bounded by the 2000 µs histogram range) and a
/// conservative fleet posture; scenarios override per-test.
struct SloConfig {
  bool enabled = true;          // tracker wired iff telemetry is on too
  double p99_local_rx_us = 1500.0;  // windowed p99, local_rx hop class
  double p99_be_rx_us = 1900.0;     // windowed p99, be_rx hop class
  double max_probe_loss = 0.05;     // lagged probe loss fraction [0,1]
  double max_cpu_util = 0.95;       // fleet-max vswitch CPU utilization
  std::uint32_t burn_window = 16;   // burn-rate window, in evaluated ticks
};

enum class SloRule : std::uint8_t {
  kP99LocalRx = 0,
  kP99BeRx,
  kProbeLoss,
  kCpuHeadroom,
  kSessionMem,
  kCount,
};

inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(SloRule::kCount)>
    kSloRuleNames = {
        "p99_local_rx_us", "p99_be_rx_us", "probe_loss",
        "cpu_util",        "session_mem",
};

/// Name for a rule id carried in TraceEvent::a (range-checked).
std::string_view slo_rule_name(std::uint64_t rule);

/// Node-id wiring the Testbed supplies: where to attribute fleet-scope
/// violations and how many ticks probe replies may lag probes.
struct SloWiring {
  std::uint32_t fleet_node = 0;    // trace slot for latency breaches
  std::uint32_t monitor_node = 0;  // trace slot for probe-loss breaches
  std::uint32_t probe_lag_ticks = 4;
};

class SloTracker {
 public:
  /// Registers the violation counters and resolves every series id against
  /// `hub.metrics()` — construct after all gauges/histograms are
  /// registered and before start_sampler(). Installs itself as the
  /// registry's tick observer and contributes the `slo` JSON section.
  SloTracker(Hub& hub, const SloConfig& cfg, const SloWiring& wiring);

  /// Sampler-tick evaluation; allocation-free.
  void on_tick(common::TimePoint now);

  /// Appends the `slo` section object (deterministic formatting).
  void write_json(std::string& out) const;

  std::uint64_t total_violations() const;
  std::uint64_t violations(SloRule r) const {
    return rules_[static_cast<std::size_t>(r)].violations;
  }
  bool rule_active(SloRule r) const {
    return rules_[static_cast<std::size_t>(r)].active;
  }
  double burn_rate(SloRule r) const;

 private:
  struct RuleState {
    bool active = false;
    double threshold = 0.0;
    std::uint64_t ticks = 0;       // evaluated ticks (value was defined)
    std::uint64_t violations = 0;
    bool have = false;             // any evaluated tick yet
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double ewma = 0.0;
    double worst = 0.0;            // most violating value seen
    std::uint32_t worst_node = 0;
    common::TimePoint first_violation_at = -1;
    common::TimePoint last_violation_at = -1;
    std::vector<std::uint8_t> burn_ring;  // breach flags, last W ticks
    std::uint32_t burn_pos = 0;
    std::uint32_t burn_count = 0;
    MetricsRegistry::Id counter = MetricsRegistry::kInvalidId;
  };

  /// Shadow of a histogram's buckets at the previous tick, for windowed
  /// quantiles over per-tick deltas.
  struct HistWindow {
    MetricsRegistry::Id id = MetricsRegistry::kInvalidId;
    std::vector<std::uint64_t> prev;
    std::uint64_t prev_underflow = 0;
    std::uint64_t prev_overflow = 0;
    std::uint64_t prev_total = 0;
  };

  /// Indexed gauge (per-vswitch series + the node it belongs to).
  struct NodeGauge {
    MetricsRegistry::Id id;
    std::uint32_t node;
  };

  /// Windowed p99 over the bucket delta since the last tick; advances the
  /// shadow. Returns false when no new observations landed this tick.
  bool windowed_p99(HistWindow& w, double* out);

  void evaluate(SloRule r, double value, std::uint32_t node,
                common::TimePoint now);

  Hub& hub_;
  SloConfig cfg_;
  SloWiring wiring_;
  std::array<RuleState, static_cast<std::size_t>(SloRule::kCount)> rules_;
  MetricsRegistry::Id total_counter_ = MetricsRegistry::kInvalidId;

  HistWindow local_rx_;
  HistWindow be_rx_;
  std::vector<NodeGauge> cpu_gauges_;
  std::vector<NodeGauge> mem_gauges_;
  MetricsRegistry::Id probes_sent_ = MetricsRegistry::kInvalidId;
  MetricsRegistry::Id probe_replies_ = MetricsRegistry::kInvalidId;
  std::vector<double> probe_lag_ring_;  // probes_sent, lagged
  std::uint32_t probe_lag_pos_ = 0;
  std::uint64_t probe_ticks_ = 0;
};

}  // namespace nezha::telemetry
