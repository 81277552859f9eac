#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sel {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 4; ++i) small.add(i % 2);
  for (int i = 0; i < 400; ++i) large.add(i % 2);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(RunningStats, Ci95NormalApproxForLargeN) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.add(i % 2);  // stddev ~0.5
  const double expected = 1.96 * s.stddev() / std::sqrt(100.0);
  EXPECT_NEAR(s.ci95_halfwidth(), expected, 1e-12);
}

}  // namespace
}  // namespace sel
