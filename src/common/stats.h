// Statistics accumulators used by tests and benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace nezha::common {

/// Streaming accumulator: count/mean/min/max/variance (Welford).
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets.
/// Counters are stored only for the span of buckets that samples have
/// touched, grown at either end by add() and merge(); every read sees the
/// nominal `buckets` buckets, and a bucket outside the span reads 0.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return buckets_; }
  std::uint64_t bucket(std::size_t i) const {
    const std::size_t k = i - first_;  // wraps below the span
    return k < counts_.size() ? counts_[k] : 0;
  }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  /// CDF value at bucket upper edge i (counts underflow as mass below lo).
  double cdf_at(std::size_t i) const;

  /// Interpolated quantile, p in [0, 100]. Mass in the underflow bucket maps
  /// to lo, overflow mass to hi; within a bucket the mass is assumed
  /// uniform. Returns 0 when empty.
  double quantile(double p) const;

  /// Accumulates `other` into this. Both histograms must have identical
  /// [lo, hi)/bucket shape; throws std::invalid_argument otherwise.
  void merge(const Histogram& other);

  void clear();

 private:
  /// Extends the stored span to cover bucket `i` (no-op inside it).
  void widen(std::size_t i);

  double lo_;
  double hi_;
  double width_;
  std::size_t buckets_;
  std::size_t first_ = 0;  // bucket index of counts_[0]
  std::vector<std::uint64_t> counts_;  // buckets [first_, first_ + size)
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Percentile estimator with two backends:
///
///  * exact (default) — stores every sample; fine for test-scale counts.
///  * bounded — construct via bounded(lo, hi, buckets); samples land in a
///    fixed-bucket Histogram and percentiles are interpolated from bucket
///    mass. Memory is the span of buckets the samples touched, regardless
///    of sample count, which is what fleet-scale benches need.
///
/// percentile(p) with p in [0,100]. merge() combines two estimators; when
/// either side is bounded the result is bounded (an exact target adopts the
/// bounded source's bucket shape, replaying its stored samples).
class Percentiles {
 public:
  Percentiles() = default;

  /// Bounded-memory estimator over [lo, hi) with `buckets` fixed buckets.
  static Percentiles bounded(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t count() const;
  bool empty() const { return count() == 0; }

  /// Accumulates `other` into this (see class comment for mode mixing).
  /// Merging two bounded estimators of different shape throws
  /// std::invalid_argument.
  void merge(const Percentiles& other);

  /// Linear-interpolated percentile; p in [0, 100]. Returns 0 when empty.
  /// Bounded mode clamps the bucket estimate to the true observed
  /// [min, max] (tracked exactly alongside the buckets).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  /// Bucket counts in bounded mode; null in exact mode.
  const Histogram* histogram() const { return hist_ ? &*hist_ : nullptr; }
  void clear();

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  std::optional<Histogram> hist_;  // engaged => bounded mode
  double sum_ = 0.0;               // bounded-mode accumulators
  double min_ = 0.0;
  double max_ = 0.0;
  void ensure_sorted() const;
  void convert_to_bounded(double lo, double hi, std::size_t buckets);
};

/// Named counters for drop-reason accounting.
///
/// Callers register a static name table once (register_ids) and then
/// increment by compile-time id — a plain array increment, no string work.
/// The name table serves the by-name reads.
class Counter {
 public:
  /// Binds the id-indexed counters to a static name table. The span must
  /// outlive the Counter (point it at a constexpr array).
  void register_ids(std::span<const std::string_view> names);

  /// Id-based increment: an array increment on the datapath.
  void inc(std::size_t id, std::uint64_t by = 1) { id_counts_[id] += by; }
  std::uint64_t get_id(std::size_t id) const { return id_counts_[id]; }

  /// Count of the registered name `key` (0 when no such name).
  std::uint64_t get(std::string_view key) const;
  /// All nonzero counters, largest first.
  const std::vector<std::pair<std::string, std::uint64_t>> sorted() const;

 private:
  std::span<const std::string_view> id_names_;
  std::vector<std::uint64_t> id_counts_;
};

}  // namespace nezha::common
