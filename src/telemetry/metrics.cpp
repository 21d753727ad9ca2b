#include "src/telemetry/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace nezha::telemetry {

namespace {

/// Deterministic double rendering: %.10g round-trips every value the
/// registry produces and never varies across runs.
void append_double(std::string& out, double v) {
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.10g", v);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::counter(std::string name) {
  const Id existing = find_counter(name);
  if (existing != kInvalidId) return existing;
  counters_.push_back(CounterSlot{std::move(name), 0});
  return static_cast<Id>(counters_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string name,
                                           std::function<double()> fn) {
  const Id existing = find_gauge(name);
  if (existing != kInvalidId) {
    gauges_[existing].fn = std::move(fn);
    return existing;
  }
  gauges_.push_back(GaugeSlot{std::move(name), std::move(fn)});
  return static_cast<Id>(gauges_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string name, double lo,
                                               double hi,
                                               std::size_t buckets) {
  const Id existing = find_histogram(name);
  if (existing != kInvalidId) return existing;
  hists_.push_back(HistSlot{std::move(name),
                            common::Percentiles::bounded(lo, hi, buckets)});
  return static_cast<Id>(hists_.size() - 1);
}

MetricsRegistry::Id MetricsRegistry::find_counter(
    std::string_view name) const {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].name == name) return static_cast<Id>(i);
  }
  return kInvalidId;
}

MetricsRegistry::Id MetricsRegistry::find_gauge(std::string_view name) const {
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].name == name) return static_cast<Id>(i);
  }
  return kInvalidId;
}

MetricsRegistry::Id MetricsRegistry::find_histogram(
    std::string_view name) const {
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].name == name) return static_cast<Id>(i);
  }
  return kInvalidId;
}

void MetricsRegistry::start_sampler(sim::EventLoop& loop,
                                    common::Duration period,
                                    std::size_t max_samples) {
  stop_sampler();
  series_counters_ = counters_.size();
  series_gauges_ = gauges_.size();
  row_width_ = 1 + series_counters_ + series_gauges_;
  max_rows_ = max_samples;
  // Reserved, not filled: pages are committed only as ticks append rows.
  rows_.clear();
  rows_.reserve(max_rows_ * row_width_);
  last_row_.assign(row_width_, 0.0);
  have_sample_ = false;
  rows_used_ = 0;
  dropped_ticks_ = 0;
  period_ = period;
  sampler_loop_ = &loop;
  sampler_id_ = loop.schedule_periodic(
      period, [this] { tick(sampler_loop_->now()); });
}

void MetricsRegistry::stop_sampler() {
  if (sampler_loop_ != nullptr) {
    sampler_loop_->cancel(sampler_id_);
    sampler_loop_ = nullptr;
    sampler_id_ = 0;
  }
}

void MetricsRegistry::tick(common::TimePoint now) {
  // Every tick fills the scratch row exactly once — gauge functions may
  // advance an internal checkpoint when read, so neither the committed row
  // nor any observer may re-invoke them. Rows beyond capacity are dropped
  // from the series but still refresh the scratch row and still notify the
  // observer, so last_sample_*() and the SLO tracker keep running.
  double* row = last_row_.data();
  row[0] = static_cast<double>(now);
  for (std::size_t i = 0; i < series_counters_; ++i) {
    row[1 + i] = static_cast<double>(counters_[i].value);
  }
  for (std::size_t j = 0; j < series_gauges_; ++j) {
    row[1 + series_counters_ + j] = gauges_[j].fn();
  }
  have_sample_ = true;
  if (rows_used_ == max_rows_) {
    ++dropped_ticks_;
  } else {
    rows_.insert(rows_.end(), row, row + row_width_);  // within capacity
    ++rows_used_;
  }
  if (tick_observer_) tick_observer_(now);
}

double MetricsRegistry::last_sample_gauge(Id g) const {
  if (!have_sample_ || g >= series_gauges_) return 0.0;
  return last_row_[1 + series_counters_ + g];
}

void MetricsRegistry::add_json_section(
    std::string name, std::function<void(std::string&)> writer) {
  sections_.push_back(JsonSection{std::move(name), std::move(writer)});
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::string out;
  out.reserve(4096 + rows_used_ * row_width_ * 12);
  out += "{\n  \"schema\": \"nezha-telemetry-v1\",\n";
  out += "  \"sample_period_ns\": ";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64, period_);
  out += buf;
  out += ",\n  \"samples_taken\": ";
  std::snprintf(buf, sizeof(buf), "%zu", rows_used_);
  out += buf;
  out += ",\n  \"dropped_ticks\": ";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, dropped_ticks_);
  out += buf;
  out += ",\n  \"series\": [";
  out += "\"t_ns\"";
  for (std::size_t i = 0; i < series_counters_; ++i) {
    out += ", ";
    append_json_string(out, "c:" + counters_[i].name);
  }
  for (std::size_t j = 0; j < series_gauges_; ++j) {
    out += ", ";
    append_json_string(out, "g:" + gauges_[j].name);
  }
  out += "],\n  \"samples\": [";
  for (std::size_t r = 0; r < rows_used_; ++r) {
    out += r == 0 ? "\n    [" : ",\n    [";
    const double* row = rows_.data() + r * row_width_;
    for (std::size_t c = 0; c < row_width_; ++c) {
      if (c != 0) out += ", ";
      if (c == 0 || c <= series_counters_) {
        // Timestamps and counters are integral; render without exponent.
        std::snprintf(buf, sizeof(buf), "%.0f", row[c]);
        out += buf;
      } else {
        append_double(out, row[c]);
      }
    }
    out += ']';
  }
  out += rows_used_ ? "\n  ],\n" : "],\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, counters_[i].name);
    out += ": ";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, counters_[i].value);
    out += buf;
  }
  out += counters_.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t h = 0; h < hists_.size(); ++h) {
    const common::Percentiles& d = hists_[h].dist;
    const common::Histogram& b = *d.histogram();
    out += h == 0 ? "\n    " : ",\n    ";
    append_json_string(out, hists_[h].name);
    out += ": {\"lo\": ";
    append_double(out, b.lo());
    out += ", \"hi\": ";
    append_double(out, b.hi());
    out += ", \"count\": ";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, b.total());
    out += buf;
    out += ", \"underflow\": ";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, b.underflow());
    out += buf;
    out += ", \"overflow\": ";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, b.overflow());
    out += buf;
    out += ",\n      \"buckets\": [";
    for (std::size_t i = 0; i < b.bucket_count(); ++i) {
      if (i != 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, b.bucket(i));
      out += buf;
    }
    out += "],\n      \"mean\": ";
    append_double(out, d.mean());
    out += ", \"min\": ";
    append_double(out, d.min());
    out += ", \"max\": ";
    append_double(out, d.max());
    out += ", \"p50\": ";
    append_double(out, d.percentile(50.0));
    out += ", \"p90\": ";
    append_double(out, d.percentile(90.0));
    out += ", \"p99\": ";
    append_double(out, d.percentile(99.0));
    out += ", \"p999\": ";
    append_double(out, d.percentile(99.9));
    out += "}";
  }
  out += hists_.empty() ? "}" : "\n  }";
  for (const JsonSection& s : sections_) {
    out += ",\n  ";
    append_json_string(out, s.name);
    out += ": ";
    s.writer(out);
  }
  out += "\n}\n";
  os << out;
}

}  // namespace nezha::telemetry
