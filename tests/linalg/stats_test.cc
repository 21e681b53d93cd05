#include "linalg/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rng/rng.h"

namespace mcirbm::linalg {
namespace {

TEST(ColumnStatsTest, MeanAndStddev) {
  Matrix m{{1, 10}, {3, 10}, {5, 10}};
  const ColumnStats stats = ComputeColumnStats(m);
  EXPECT_DOUBLE_EQ(stats.mean[0], 3);
  EXPECT_DOUBLE_EQ(stats.mean[1], 10);
  EXPECT_NEAR(stats.stddev[0], std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.stddev[1], 0);
}

TEST(ColumnStatsTest, SingleRowHasZeroStddev) {
  Matrix m{{5, -3}};
  const ColumnStats stats = ComputeColumnStats(m);
  EXPECT_DOUBLE_EQ(stats.mean[0], 5);
  EXPECT_DOUBLE_EQ(stats.stddev[1], 0);
}

TEST(ColumnRangeTest, MinMaxPerColumn) {
  Matrix m{{1, 5}, {-2, 7}, {0, 6}};
  const ColumnRange range = ComputeColumnRange(m);
  EXPECT_DOUBLE_EQ(range.min[0], -2);
  EXPECT_DOUBLE_EQ(range.max[0], 1);
  EXPECT_DOUBLE_EQ(range.min[1], 5);
  EXPECT_DOUBLE_EQ(range.max[1], 7);
}

TEST(ScalarStatsTest, MeanVarianceStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5);
  EXPECT_DOUBLE_EQ(Variance(xs), 4);
  EXPECT_DOUBLE_EQ(StdDev(xs), 2);
}

TEST(ScalarStatsTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Mean({}), 0);
  EXPECT_DOUBLE_EQ(Variance({}), 0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0);
}

TEST(PercentileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2);
}

TEST(PercentileTest, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 25), 2.5);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> xs = {5, 1, 9};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 9);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 30), 7);
}

TEST(PercentileTest, InputNotMutated) {
  std::vector<double> xs = {3, 1, 2};
  Percentile(xs, 50);
  EXPECT_EQ(xs[0], 3);  // copy semantics
}

// Percentile selects its two order statistics instead of sorting; on
// seeded samples of every size from 1 to 1000, half of them full of ties,
// it returns the same double as interpolating in the fully sorted sample.
TEST(PercentileTest, MatchesSortedReference) {
  rng::Rng rng(11);
  for (std::size_t n = 1; n <= 1000; ++n) {
    std::vector<double> xs(n);
    for (double& x : xs) {
      x = n % 2 == 0 ? rng.Gaussian()
                     : static_cast<double>(rng.UniformIndex(7)) - 3.0;
    }
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 12.5, 50.0, 99.0, 100.0}) {
      const double pos = p / 100.0 * static_cast<double>(n - 1);
      const std::size_t lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, n - 1);
      const double frac = pos - static_cast<double>(lo);
      const double want = sorted[lo] * (1 - frac) + sorted[hi] * frac;
      EXPECT_EQ(Percentile(xs, p), want) << "n=" << n << " p=" << p;
    }
  }
}

}  // namespace
}  // namespace mcirbm::linalg
