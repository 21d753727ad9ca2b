// Unit tests for src/common: time formatting, RNG determinism and
// distribution sanity, statistics accumulators.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string_view>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"

namespace nezha::common {
namespace {

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_EQ(milliseconds(3), 3'000'000);
  EXPECT_EQ(microseconds(7), 7'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(9)), 9.0);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(seconds(2)), "2.000s");
  EXPECT_EQ(format_duration(milliseconds(1500)), "1.500s");
  EXPECT_EQ(format_duration(microseconds(250)), "250.000us");
  EXPECT_EQ(format_duration(42), "42ns");
  EXPECT_EQ(format_duration(-milliseconds(3)), "-3.000ms");
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMean) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, ParetoTailHeavierThanExponential) {
  Rng rng(19);
  Percentiles pareto, expo;
  for (int i = 0; i < 50000; ++i) {
    pareto.add(rng.pareto(1.0, 1.2));
    expo.add(rng.exponential(6.0));  // matched rough mean
  }
  // Pareto P999/P50 ratio must dominate the exponential's.
  const double pr = pareto.percentile(99.9) / pareto.median();
  const double er = expo.percentile(99.9) / expo.median();
  EXPECT_GT(pr, er);
}

TEST(RngTest, ZipfSkew) {
  Rng rng(23);
  std::uint64_t rank1 = 0, total = 20000;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (rng.zipf(100, 1.1) == 1) ++rank1;
  }
  // Rank 1 must receive far more than the uniform share (1%).
  EXPECT_GT(rank1, total / 20);
}

TEST(RngTest, ZipfInRange) {
  Rng rng(29);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.zipf(50, 0.9);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 50u);
  }
  // Large-n path.
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.zipf(1u << 20, 1.2);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1u << 20);
  }
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(31);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(RngTest, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream should not track the parent.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(SummaryTest, Basics) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(1.0);
  s.add(2.0);
  s.add(3.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

TEST(SummaryTest, MergeMatchesCombined) {
  Rng rng(37);
  Summary a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(0, 1);
    if (i % 2 == 0) a.add(x); else b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SummaryTest, MergeWithEmpty) {
  Summary a, b;
  a.add(5.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(PercentilesTest, ExactValues) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(90), 90.1, 0.2);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentilesTest, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_TRUE(p.empty());
}

TEST(PercentilesTest, AddAfterQueryResorts) {
  Percentiles p;
  p.add(10);
  EXPECT_DOUBLE_EQ(p.median(), 10.0);
  p.add(0);
  EXPECT_DOUBLE_EQ(p.min(), 0.0);
}

TEST(HistogramTest, BucketsAndCdf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucket(i), 1u);
  EXPECT_DOUBLE_EQ(h.cdf_at(4), 0.5);
  EXPECT_DOUBLE_EQ(h.cdf_at(9), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 4.0);
}

TEST(HistogramTest, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-1.0);
  h.add(2.0);
  h.add(0.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(CounterTest, IncrementAndSort) {
  static constexpr std::array<std::string_view, 3> kNames = {"a", "b", "c"};
  Counter c;
  c.register_ids(kNames);
  c.inc(0);
  c.inc(1, 5);
  c.inc(0, 2);
  EXPECT_EQ(c.get("a"), 3u);
  EXPECT_EQ(c.get("b"), 5u);
  EXPECT_EQ(c.get("c"), 0u);
  EXPECT_EQ(c.get("missing"), 0u);
  auto sorted = c.sorted();
  ASSERT_EQ(sorted.size(), 2u);  // zero counters are left out
  EXPECT_EQ(sorted[0].first, "b");
  EXPECT_EQ(sorted[1].first, "a");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  Result<int> err(make_error("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().message, "boom");
  EXPECT_EQ(err.value_or(7), 7);
  EXPECT_THROW(err.value(), std::runtime_error);
}

TEST(ResultTest, StatusDefaultsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status f(make_error("bad"));
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error().message, "bad");
}

}  // namespace
}  // namespace nezha::common
