#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.hpp"

namespace harvest::core {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats left;
  RunningStats right;
  RunningStats all;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(10.0, 3.0);
    (i % 2 == 0 ? left : right).add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  empty.merge(stats);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Percentiles, ExactOrderStatistics) {
  Percentiles pct;
  for (int i = 100; i >= 1; --i) pct.add(i);  // reversed insert order
  EXPECT_EQ(pct.count(), 100u);
  EXPECT_DOUBLE_EQ(pct.min(), 1.0);
  EXPECT_DOUBLE_EQ(pct.max(), 100.0);
  EXPECT_DOUBLE_EQ(pct.median(), 50.5);
  EXPECT_NEAR(pct.quantile(0.95), 95.05, 1e-9);
  EXPECT_NEAR(pct.mean(), 50.5, 1e-9);
}

TEST(Percentiles, SingleSample) {
  Percentiles pct;
  pct.add(42.0);
  EXPECT_DOUBLE_EQ(pct.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(pct.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(pct.quantile(1.0), 42.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles pct;
  EXPECT_DOUBLE_EQ(pct.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(pct.mean(), 0.0);
}

TEST(Percentiles, InterleavedAddAndQuery) {
  Percentiles pct;
  pct.add(10.0);
  pct.add(20.0);
  EXPECT_DOUBLE_EQ(pct.median(), 15.0);
  pct.add(30.0);  // must re-sort transparently
  EXPECT_DOUBLE_EQ(pct.median(), 20.0);
}

TEST(NearestRank, PicksTheSampleAtTheCeilingRank) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.51), 4.0);  // ceil(2.04) = 3
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(nearest_rank({}, 0.5), 0.0);
}

TEST(Histogram, BinGeometry) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_EQ(hist.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(hist.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(hist.bin_lo(4), 8.0);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(-100.0);
  hist.add(1e9);
  EXPECT_DOUBLE_EQ(hist.bin_mass(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.bin_mass(4), 1.0);
  EXPECT_DOUBLE_EQ(hist.total_mass(), 2.0);
}

TEST(Histogram, ModeFindsHeaviestBin) {
  Histogram hist(0.0, 100.0, 10);
  for (int i = 0; i < 5; ++i) hist.add(33.0);
  hist.add(77.0);
  EXPECT_DOUBLE_EQ(hist.mode(), 35.0);  // midpoint of [30, 40)
}

TEST(Histogram, DensityIntegratesToOne) {
  Histogram hist(0.0, 1.0, 20);
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) hist.add(rng.next_double());
  double integral = 0.0;
  for (std::size_t b = 0; b < hist.bin_count(); ++b) {
    integral += hist.density(b) * (hist.bin_hi(b) - hist.bin_lo(b));
  }
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, WeightedMass) {
  Histogram hist(0.0, 10.0, 2);
  hist.add(1.0, 2.5);
  hist.add(6.0, 0.5);
  EXPECT_DOUBLE_EQ(hist.bin_mass(0), 2.5);
  EXPECT_DOUBLE_EQ(hist.bin_mass(1), 0.5);
  EXPECT_DOUBLE_EQ(hist.total_mass(), 3.0);
}

// Regression: `add` converted (x - lo)/width with a static_cast, which
// truncates toward zero — samples in (lo - width, lo) landed in bin 0
// as if they were in range, with no record of the underflow. They must
// clamp AND be counted as underflow mass.
TEST(Histogram, UnderflowJustBelowLoIsTracked) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(-0.5);  // truncation bug: (x-lo)/width = -0.25 → idx 0, "in range"
  hist.add(1.0);
  EXPECT_DOUBLE_EQ(hist.bin_mass(0), 2.0);  // clamped mass stays visible
  EXPECT_DOUBLE_EQ(hist.underflow_mass(), 1.0);
  EXPECT_DOUBLE_EQ(hist.overflow_mass(), 0.0);
  EXPECT_DOUBLE_EQ(hist.total_mass(), 2.0);
}

TEST(Histogram, OverflowMassTracked) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(10.0);   // hi itself lies outside [lo, hi)
  hist.add(1e300);  // would be UB through the old int cast
  hist.add(9.999);
  EXPECT_DOUBLE_EQ(hist.bin_mass(4), 3.0);
  EXPECT_DOUBLE_EQ(hist.overflow_mass(), 2.0);
  EXPECT_DOUBLE_EQ(hist.underflow_mass(), 0.0);
}

TEST(Histogram, NanSamplesAreDropped) {
  Histogram hist(0.0, 10.0, 5);
  hist.add(std::nan(""));
  hist.add(5.0);
  EXPECT_DOUBLE_EQ(hist.total_mass(), 1.0);
  EXPECT_DOUBLE_EQ(hist.underflow_mass(), 0.0);
  EXPECT_DOUBLE_EQ(hist.overflow_mass(), 0.0);
}

TEST(Histogram, InfinitiesClampWithoutUb) {
  Histogram hist(-5.0, 5.0, 10);
  hist.add(std::numeric_limits<double>::infinity());
  hist.add(-std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(hist.bin_mass(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.bin_mass(9), 1.0);
  EXPECT_DOUBLE_EQ(hist.underflow_mass(), 1.0);
  EXPECT_DOUBLE_EQ(hist.overflow_mass(), 1.0);
}

TEST(Histogram, AsciiRenderingHasOneLinePerBin) {
  Histogram hist(0.0, 4.0, 4);
  hist.add(1.0);
  const std::string art = hist.ascii();
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace harvest::core
