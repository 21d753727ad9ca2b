#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nezha::common {

void Summary::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void Summary::merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double Summary::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Percentiles::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

Percentiles Percentiles::bounded(double lo, double hi, std::size_t buckets) {
  Percentiles p;
  p.hist_.emplace(lo, hi, buckets);
  return p;
}

void Percentiles::add(double x) {
  if (hist_) {
    if (hist_->total() == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    sum_ += x;
    hist_->add(x);
    return;
  }
  samples_.push_back(x);
  sorted_ = false;
}

std::size_t Percentiles::count() const {
  return hist_ ? static_cast<std::size_t>(hist_->total()) : samples_.size();
}

void Percentiles::convert_to_bounded(double lo, double hi,
                                     std::size_t buckets) {
  std::vector<double> old = std::move(samples_);
  samples_.clear();
  sorted_ = false;
  hist_.emplace(lo, hi, buckets);
  sum_ = 0.0;
  min_ = max_ = 0.0;
  for (double x : old) add(x);
}

void Percentiles::merge(const Percentiles& other) {
  if (other.empty()) {
    // Still adopt the source's backend so merge(a, b) has a mode
    // independent of which operands were empty.
    if (other.hist_ && !hist_) {
      convert_to_bounded(other.hist_->lo(), other.hist_->hi(),
                         other.hist_->bucket_count());
    }
    return;
  }
  if (!hist_ && other.hist_) {
    convert_to_bounded(other.hist_->lo(), other.hist_->hi(),
                       other.hist_->bucket_count());
  }
  if (hist_) {
    if (other.hist_) {
      const bool was_empty = hist_->total() == 0;
      hist_->merge(*other.hist_);  // throws on shape mismatch
      sum_ += other.sum_;
      if (was_empty) {
        min_ = other.min_;
        max_ = other.max_;
      } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
      }
    } else {
      for (double x : other.samples_) add(x);
    }
    return;
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = false;
}

double Percentiles::percentile(double p) const {
  if (hist_) {
    if (hist_->total() == 0) return 0.0;
    if (p <= 0.0) return min_;
    if (p >= 100.0) return max_;
    return std::clamp(hist_->quantile(p), min_, max_);
  }
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (p <= 0.0) return samples_.front();
  if (p >= 100.0) return samples_.back();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double Percentiles::mean() const {
  if (hist_) {
    return hist_->total() == 0
               ? 0.0
               : sum_ / static_cast<double>(hist_->total());
  }
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

void Percentiles::clear() {
  samples_.clear();
  sorted_ = false;
  if (hist_) hist_->clear();
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      buckets_(buckets) {
  if (!(hi > lo) || buckets == 0) {
    throw std::invalid_argument("Histogram requires hi > lo and buckets > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= buckets_) idx = buckets_ - 1;
    if (idx - first_ >= counts_.size()) widen(idx);
    ++counts_[idx - first_];
  }
}

void Histogram::widen(std::size_t i) {
  if (counts_.empty()) {
    first_ = i;
    counts_.push_back(0);
  } else if (i < first_) {
    counts_.insert(counts_.begin(), first_ - i, 0);
    first_ = i;
  } else if (i - first_ >= counts_.size()) {
    counts_.resize(i - first_ + 1, 0);
  }
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(std::size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::cdf_at(std::size_t i) const {
  if (total_ == 0) return 0.0;
  std::uint64_t below = underflow_;
  for (std::size_t k = 0; k < counts_.size() && first_ + k <= i; ++k) {
    below += counts_[k];
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

double Histogram::quantile(double p) const {
  if (total_ == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total_);
  double below = static_cast<double>(underflow_);
  if (target <= below) return lo_;
  // Buckets outside the span hold no mass, so skipping them changes
  // neither `below` nor where the walk stops.
  for (std::size_t k = 0; k < counts_.size(); ++k) {
    const auto mass = static_cast<double>(counts_[k]);
    if (below + mass >= target && mass > 0.0) {
      const double frac = (target - below) / mass;
      return bucket_lo(first_ + k) + frac * width_;
    }
    below += mass;
  }
  return hi_;  // target lands in the overflow bucket
}

void Histogram::merge(const Histogram& other) {
  if (other.lo_ != lo_ || other.hi_ != hi_ || other.buckets_ != buckets_) {
    throw std::invalid_argument("Histogram::merge: shape mismatch");
  }
  if (!other.counts_.empty()) {
    widen(other.first_);
    widen(other.first_ + other.counts_.size() - 1);
    const std::size_t base = other.first_ - first_;
    for (std::size_t k = 0; k < other.counts_.size(); ++k) {
      counts_[base + k] += other.counts_[k];
    }
  }
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

void Histogram::clear() {
  counts_.clear();  // keeps the capacity: re-adds over the span reuse it
  underflow_ = 0;
  overflow_ = 0;
  total_ = 0;
}

void Counter::register_ids(std::span<const std::string_view> names) {
  id_names_ = names;
  id_counts_.assign(names.size(), 0);
}

std::uint64_t Counter::get(std::string_view key) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < id_names_.size(); ++i) {
    if (id_names_[i] == key) total += id_counts_[i];
  }
  return total;
}

const std::vector<std::pair<std::string, std::uint64_t>> Counter::sorted()
    const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t i = 0; i < id_names_.size(); ++i) {
    if (id_counts_[i] != 0) out.emplace_back(id_names_[i], id_counts_[i]);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  return out;
}

}  // namespace nezha::common
