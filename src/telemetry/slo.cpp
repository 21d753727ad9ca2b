#include "src/telemetry/slo.h"

#include <cinttypes>
#include <cstdio>

#include "src/telemetry/hub.h"

namespace nezha::telemetry {

namespace {

/// Fleet-max session-memory utilization threshold.
constexpr double kMaxSessionMem = 0.95;
/// EWMA smoothing for baselines.
constexpr double kEwmaAlpha = 0.2;

// Mirrors the registry's deterministic double rendering.
void append_double(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.10g", v);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

/// Parses the vswitch index out of "vs<digits>.<suffix>"; returns false
/// for any other gauge name shape.
bool parse_vs_gauge(std::string_view name, std::string_view suffix,
                    std::uint32_t* node) {
  if (name.size() < 2 + 1 + suffix.size()) return false;
  if (name.substr(0, 2) != "vs") return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  const std::string_view digits =
      name.substr(2, name.size() - 2 - suffix.size());
  if (digits.empty()) return false;
  std::uint32_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint32_t>(c - '0');
  }
  *node = v;
  return true;
}

}  // namespace

std::string_view slo_rule_name(std::uint64_t rule) {
  return rule < kSloRuleNames.size() ? kSloRuleNames[rule] : "?";
}

SloTracker::SloTracker(Hub& hub, const SloConfig& cfg, const SloWiring& wiring)
    : hub_(hub), cfg_(cfg), wiring_(wiring) {
  MetricsRegistry& m = hub_.metrics();
  total_counter_ = m.counter("slo.violations");
  const std::uint32_t burn_w = cfg_.burn_window == 0 ? 1 : cfg_.burn_window;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    rules_[r].counter =
        m.counter("slo.violations." + std::string(kSloRuleNames[r]));
    rules_[r].burn_ring.assign(burn_w, 0);
  }

  auto wire_hist = [&m](HistWindow& w, std::string_view name) {
    w.id = m.find_histogram(name);
    if (w.id == MetricsRegistry::kInvalidId) return false;
    w.prev.assign(m.hist_data(w.id).bucket_count(), 0);
    return true;
  };
  rules_[static_cast<std::size_t>(SloRule::kP99LocalRx)].active =
      wire_hist(local_rx_, "latency.local_rx_us");
  rules_[static_cast<std::size_t>(SloRule::kP99BeRx)].active =
      wire_hist(be_rx_, "latency.be_rx_us");

  for (std::size_t g = 0; g < m.gauge_count(); ++g) {
    const auto id = static_cast<MetricsRegistry::Id>(g);
    std::uint32_t node = 0;
    if (parse_vs_gauge(m.gauge_name(id), ".cpu_util", &node)) {
      cpu_gauges_.push_back(NodeGauge{id, node});
    } else if (parse_vs_gauge(m.gauge_name(id), ".session_mem", &node)) {
      mem_gauges_.push_back(NodeGauge{id, node});
    }
  }
  rules_[static_cast<std::size_t>(SloRule::kCpuHeadroom)].active =
      !cpu_gauges_.empty();
  rules_[static_cast<std::size_t>(SloRule::kSessionMem)].active =
      !mem_gauges_.empty();

  probes_sent_ = m.find_gauge("mon.probes_sent");
  probe_replies_ = m.find_gauge("mon.probe_replies");
  const bool probes = probes_sent_ != MetricsRegistry::kInvalidId &&
                      probe_replies_ != MetricsRegistry::kInvalidId;
  rules_[static_cast<std::size_t>(SloRule::kProbeLoss)].active = probes;
  if (probes) {
    const std::uint32_t lag =
        wiring_.probe_lag_ticks == 0 ? 1 : wiring_.probe_lag_ticks;
    probe_lag_ring_.assign(lag, 0.0);
  }

  rules_[static_cast<std::size_t>(SloRule::kP99LocalRx)].threshold =
      cfg_.p99_local_rx_us;
  rules_[static_cast<std::size_t>(SloRule::kP99BeRx)].threshold =
      cfg_.p99_be_rx_us;
  rules_[static_cast<std::size_t>(SloRule::kProbeLoss)].threshold =
      cfg_.max_probe_loss;
  rules_[static_cast<std::size_t>(SloRule::kCpuHeadroom)].threshold =
      cfg_.max_cpu_util;
  rules_[static_cast<std::size_t>(SloRule::kSessionMem)].threshold =
      kMaxSessionMem;

  m.set_tick_observer([this](common::TimePoint now) { on_tick(now); });
  m.add_json_section("slo", [this](std::string& out) { write_json(out); });
}

bool SloTracker::windowed_p99(HistWindow& w, double* out) {
  const MetricsRegistry& m = hub_.metrics();
  const common::Histogram& h = m.hist_data(w.id);
  const std::uint64_t total = h.total();
  const std::uint64_t n = total - w.prev_total;
  const std::uint64_t under = h.underflow();
  const std::uint64_t over = h.overflow();
  if (n == 0) return false;

  const double target = 0.99 * static_cast<double>(n);
  double value = h.hi();
  double cum = static_cast<double>(under - w.prev_underflow);
  bool found = false;
  if (cum >= target) {
    value = h.lo();
    found = true;
  }
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const std::uint64_t d = h.bucket(i) - w.prev[i];
    if (!found) {
      cum += static_cast<double>(d);
      if (cum >= target) {
        const double frac =
            d == 0 ? 1.0
                   : (target - (cum - static_cast<double>(d))) /
                         static_cast<double>(d);
        value = h.bucket_lo(i) + (h.bucket_hi(i) - h.bucket_lo(i)) * frac;
        found = true;
      }
    }
    w.prev[i] = h.bucket(i);
  }
  w.prev_underflow = under;
  w.prev_overflow = over;
  w.prev_total = total;
  *out = value;
  return true;
}

void SloTracker::evaluate(SloRule r, double value, std::uint32_t node,
                          common::TimePoint now) {
  RuleState& s = rules_[static_cast<std::size_t>(r)];
  if (!s.have) {
    s.have = true;
    s.min = s.max = value;
    s.ewma = value;
  } else {
    if (value < s.min) s.min = value;
    if (value > s.max) s.max = value;
    s.ewma += kEwmaAlpha * (value - s.ewma);
  }
  s.last = value;
  ++s.ticks;

  const bool breach = value > s.threshold;
  const std::uint8_t flag = breach ? 1 : 0;
  s.burn_count += flag;
  s.burn_count -= s.burn_ring[s.burn_pos];
  s.burn_ring[s.burn_pos] = flag;
  s.burn_pos = (s.burn_pos + 1) % static_cast<std::uint32_t>(
                                      s.burn_ring.size());

  if (!breach) return;
  ++s.violations;
  if (s.first_violation_at < 0) s.first_violation_at = now;
  s.last_violation_at = now;
  if (s.violations == 1 || value > s.worst) {
    s.worst = value;
    s.worst_node = node;
  }
  MetricsRegistry& m = hub_.metrics();
  m.add(total_counter_);
  m.add(s.counter);
  TraceEvent e;
  e.at = now;
  e.node = node;
  e.kind = EventKind::kSloViolation;
  e.a = static_cast<std::uint64_t>(r);
  e.b = value <= 0.0 ? 0 : static_cast<std::uint64_t>(value * 1000.0);
  hub_.record(e);
}

void SloTracker::on_tick(common::TimePoint now) {
  const MetricsRegistry& m = hub_.metrics();
  double v = 0.0;
  if (rule_active(SloRule::kP99LocalRx) && windowed_p99(local_rx_, &v)) {
    evaluate(SloRule::kP99LocalRx, v, wiring_.fleet_node, now);
  }
  if (rule_active(SloRule::kP99BeRx) && windowed_p99(be_rx_, &v)) {
    evaluate(SloRule::kP99BeRx, v, wiring_.fleet_node, now);
  }
  if (rule_active(SloRule::kProbeLoss)) {
    const double sent_now = m.last_sample_gauge(probes_sent_);
    const double replies_now = m.last_sample_gauge(probe_replies_);
    const double lagged = probe_lag_ring_[probe_lag_pos_];
    probe_lag_ring_[probe_lag_pos_] = sent_now;
    probe_lag_pos_ = (probe_lag_pos_ + 1) %
                     static_cast<std::uint32_t>(probe_lag_ring_.size());
    ++probe_ticks_;
    if (probe_ticks_ > probe_lag_ring_.size() && lagged > 0.0) {
      double loss = (lagged - replies_now) / lagged;
      if (loss < 0.0) loss = 0.0;
      if (loss > 1.0) loss = 1.0;
      evaluate(SloRule::kProbeLoss, loss, wiring_.monitor_node, now);
    }
  }
  if (rule_active(SloRule::kCpuHeadroom)) {
    double worst = 0.0;
    std::uint32_t node = cpu_gauges_[0].node;
    for (const NodeGauge& g : cpu_gauges_) {
      const double x = m.last_sample_gauge(g.id);
      if (x > worst) {
        worst = x;
        node = g.node;
      }
    }
    evaluate(SloRule::kCpuHeadroom, worst, node, now);
  }
  if (rule_active(SloRule::kSessionMem)) {
    double worst = 0.0;
    std::uint32_t node = mem_gauges_[0].node;
    for (const NodeGauge& g : mem_gauges_) {
      const double x = m.last_sample_gauge(g.id);
      if (x > worst) {
        worst = x;
        node = g.node;
      }
    }
    evaluate(SloRule::kSessionMem, worst, node, now);
  }
}

std::uint64_t SloTracker::total_violations() const {
  std::uint64_t n = 0;
  for (const RuleState& s : rules_) n += s.violations;
  return n;
}

double SloTracker::burn_rate(SloRule r) const {
  const RuleState& s = rules_[static_cast<std::size_t>(r)];
  if (s.ticks == 0) return 0.0;
  const std::uint64_t w = s.ticks < s.burn_ring.size()
                              ? s.ticks
                              : static_cast<std::uint64_t>(
                                    s.burn_ring.size());
  return static_cast<double>(s.burn_count) / static_cast<double>(w);
}

void SloTracker::write_json(std::string& out) const {
  out += "{\n    \"config\": {\"ewma_alpha\": ";
  append_double(out, kEwmaAlpha);
  out += ", \"burn_window\": ";
  append_u64(out, cfg_.burn_window);
  out += ", \"probe_lag_ticks\": ";
  append_u64(out, wiring_.probe_lag_ticks);
  out += "},\n    \"rules\": {";
  bool first = true;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const RuleState& s = rules_[r];
    if (!s.active) continue;
    out += first ? "\n      \"" : ",\n      \"";
    first = false;
    out += kSloRuleNames[r];
    out += "\": {\"threshold\": ";
    append_double(out, s.threshold);
    out += ", \"ticks\": ";
    append_u64(out, s.ticks);
    out += ", \"violations\": ";
    append_u64(out, s.violations);
    out += ",\n        \"last\": ";
    append_double(out, s.last);
    out += ", \"min\": ";
    append_double(out, s.min);
    out += ", \"max\": ";
    append_double(out, s.max);
    out += ", \"ewma\": ";
    append_double(out, s.ewma);
    out += ", \"burn_rate\": ";
    append_double(out, burn_rate(static_cast<SloRule>(r)));
    out += ",\n        \"worst\": ";
    append_double(out, s.worst);
    out += ", \"worst_node\": ";
    append_u64(out, s.worst_node);
    out += ", \"first_violation_t_ns\": ";
    append_i64(out, s.first_violation_at);
    out += ", \"last_violation_t_ns\": ";
    append_i64(out, s.last_violation_at);
    out += "}";
  }
  out += first ? "},\n" : "\n    },\n";
  out += "    \"total_violations\": ";
  append_u64(out, total_violations());
  out += "\n  }";
}

}  // namespace nezha::telemetry
