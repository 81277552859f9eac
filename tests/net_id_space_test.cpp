#include "net/id_space.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace sel::net {
namespace {

TEST(OverlayId, WrapsIntoUnitInterval) {
  EXPECT_DOUBLE_EQ(OverlayId(0.25).value(), 0.25);
  EXPECT_DOUBLE_EQ(OverlayId(1.25).value(), 0.25);
  EXPECT_DOUBLE_EQ(OverlayId(-0.25).value(), 0.75);
  EXPECT_DOUBLE_EQ(OverlayId(2.0).value(), 0.0);
}

TEST(OverlayId, FromHashInRange) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double v = OverlayId::from_hash(k).value();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(OverlayId, FromHashIsDeterministicAndSpread) {
  EXPECT_EQ(OverlayId::from_hash(7), OverlayId::from_hash(7));
  // Consecutive keys should land far apart on average.
  double total = 0.0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    total += ring_distance(OverlayId::from_hash(k), OverlayId::from_hash(k + 1));
  }
  EXPECT_GT(total / 100.0, 0.1);
}

TEST(RingDistance, BasicProperties) {
  EXPECT_DOUBLE_EQ(ring_distance(OverlayId(0.1), OverlayId(0.1)), 0.0);
  EXPECT_DOUBLE_EQ(ring_distance(OverlayId(0.1), OverlayId(0.3)), 0.2);
  EXPECT_DOUBLE_EQ(ring_distance(OverlayId(0.3), OverlayId(0.1)), 0.2);
  // Wraps the short way around.
  EXPECT_NEAR(ring_distance(OverlayId(0.95), OverlayId(0.05)), 0.1, 1e-12);
}

TEST(RingDistance, MaxIsHalf) {
  EXPECT_DOUBLE_EQ(ring_distance(OverlayId(0.0), OverlayId(0.5)), 0.5);
  EXPECT_LE(ring_distance(OverlayId(0.13), OverlayId(0.77)), 0.5);
}

TEST(ClockwiseDistance, Directional) {
  EXPECT_NEAR(clockwise_distance(OverlayId(0.2), OverlayId(0.5)), 0.3, 1e-12);
  EXPECT_NEAR(clockwise_distance(OverlayId(0.5), OverlayId(0.2)), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(clockwise_distance(OverlayId(0.4), OverlayId(0.4)), 0.0);
}

TEST(RingMidpoint, SimpleMidpoint) {
  const OverlayId m = ring_midpoint(OverlayId(0.2), OverlayId(0.4));
  EXPECT_NEAR(m.value(), 0.3, 1e-12);
}

TEST(RingMidpoint, WrapsAcrossZero) {
  const OverlayId m = ring_midpoint(OverlayId(0.9), OverlayId(0.1));
  EXPECT_NEAR(m.value(), 0.0, 1e-12);
}

TEST(RingMidpoint, IsSymmetric) {
  const OverlayId a(0.15);
  const OverlayId b(0.75);
  EXPECT_NEAR(ring_midpoint(a, b).value(), ring_midpoint(b, a).value(), 1e-12);
}

TEST(RingMidpoint, EquidistantFromBothEnds) {
  const OverlayId a(0.13);
  const OverlayId b(0.57);
  const OverlayId m = ring_midpoint(a, b);
  EXPECT_NEAR(ring_distance(m, a), ring_distance(m, b), 1e-12);
}

TEST(RingMidpoint, OnShorterArc) {
  const OverlayId a(0.95);
  const OverlayId b(0.15);
  const OverlayId m = ring_midpoint(a, b);
  // Shorter arc crosses 0; midpoint is 0.05, not 0.55.
  EXPECT_NEAR(m.value(), 0.05, 1e-12);
}

TEST(Advance, MovesAndWraps) {
  EXPECT_NEAR(advance(OverlayId(0.9), 0.2).value(), 0.1, 1e-12);
  EXPECT_NEAR(advance(OverlayId(0.1), -0.2).value(), 0.9, 1e-12);
}

// Property sweep: midpoint invariants over many random pairs.
class MidpointSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MidpointSweep, MidpointEquidistantAndOnShortArc) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const OverlayId a(rng.uniform());
    const OverlayId b(rng.uniform());
    const OverlayId m = ring_midpoint(a, b);
    const double d = ring_distance(a, b);
    EXPECT_NEAR(ring_distance(m, a), d / 2.0, 1e-9);
    EXPECT_NEAR(ring_distance(m, b), d / 2.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MidpointSweep, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace sel::net
