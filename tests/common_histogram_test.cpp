#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sel {
namespace {

TEST(Histogram, BinsValuesCorrectly) {
  Histogram h(0.0, 1.0, 10);
  h.add(0.05);
  h.add(0.15);
  h.add(0.95);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, WeightsAccumulate) {
  Histogram h(0.0, 10.0, 5);
  h.add(1.0, 2.5);
  h.add(1.5, 0.5);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
}

TEST(Histogram, BinGeometry) {
  Histogram h(2.0, 12.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 10.0);
}

TEST(Histogram, ClumpinessZeroForUniform) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 4; ++i) h.add(0.125 + 0.25 * i);
  EXPECT_NEAR(h.clumpiness(), 0.0, 1e-12);
}

TEST(Histogram, ClumpinessHighForSpike) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.55);
  EXPECT_GT(h.clumpiness(), 2.0);
}

TEST(Histogram, EntropyOfUniformIsLogBins) {
  Histogram h(0.0, 1.0, 8);
  for (int i = 0; i < 8; ++i) h.add((i + 0.5) / 8.0);
  EXPECT_NEAR(h.entropy_bits(), 3.0, 1e-12);
}

TEST(Histogram, EntropyOfSpikeIsZero) {
  Histogram h(0.0, 1.0, 8);
  for (int i = 0; i < 50; ++i) h.add(0.3);
  EXPECT_NEAR(h.entropy_bits(), 0.0, 1e-12);
}

TEST(Histogram, RenderContainsOneLinePerBin) {
  Histogram h(0.0, 1.0, 5);
  h.add(0.5);
  const std::string out = h.render();
  std::size_t lines = 0;
  for (const char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);
}

}  // namespace
}  // namespace sel
