#include "common/bitset.hpp"

#include <gtest/gtest.h>

namespace sel {
namespace {

TEST(DynamicBitset, StartsAllClear) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitset, SetAndTest) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
}

TEST(DynamicBitset, ResetClearsBit) {
  DynamicBitset b(10);
  b.set(5);
  EXPECT_TRUE(b.test(5));
  b.reset(5);
  EXPECT_FALSE(b.test(5));
  EXPECT_EQ(b.count(), 0u);
}

TEST(DynamicBitset, AssignSelectsOperation) {
  DynamicBitset b(4);
  b.assign(2, true);
  EXPECT_TRUE(b.test(2));
  b.assign(2, false);
  EXPECT_FALSE(b.test(2));
}

TEST(DynamicBitset, ClearAll) {
  DynamicBitset b(130);
  for (std::size_t i = 0; i < 130; i += 3) b.set(i);
  EXPECT_GT(b.count(), 0u);
  b.clear_all();
  EXPECT_EQ(b.count(), 0u);
}

TEST(DynamicBitset, HammingDistance) {
  DynamicBitset a(65);
  DynamicBitset b(65);
  a.set(0);
  a.set(64);
  b.set(0);
  b.set(10);
  EXPECT_EQ(a.hamming_distance(b), 2u);  // 64 and 10 differ
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(DynamicBitset, IntersectionAndUnionCounts) {
  DynamicBitset a(10);
  DynamicBitset b(10);
  a.set(1);
  a.set(2);
  a.set(3);
  b.set(3);
  b.set(4);
  EXPECT_EQ(a.intersection_count(b), 1u);
  auto u = a;
  u |= b;
  EXPECT_EQ(u.count(), 4u);
}

TEST(DynamicBitset, BitwiseOps) {
  DynamicBitset a(6);
  DynamicBitset b(6);
  a.set(0);
  a.set(1);
  b.set(1);
  b.set(2);
  auto c = a;
  c |= b;
  EXPECT_EQ(c.count(), 3u);
  EXPECT_TRUE(c.test(0));
  EXPECT_TRUE(c.test(1));
  EXPECT_TRUE(c.test(2));
}

TEST(DynamicBitset, EqualityComparesContent) {
  DynamicBitset a(10);
  DynamicBitset b(10);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  b.set(3);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitset, ResizeGrowsWithClearBits) {
  DynamicBitset b(4);
  b.set(3);
  b.resize(128);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_TRUE(b.test(3));
  EXPECT_FALSE(b.test(100));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynamicBitset, ResizeShrinkTrimsTrailingBits) {
  DynamicBitset b(128);
  b.set(100);
  b.set(3);
  b.resize(64);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(b.count(), 1u);  // bit 100 gone
  b.resize(128);
  EXPECT_FALSE(b.test(100));  // does not resurrect
}

TEST(DynamicBitset, EmptyBitset) {
  DynamicBitset b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.count(), 0u);
}

// Property sweep over sizes including word boundaries.
class BitsetSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizeSweep, CountMatchesSetBits) {
  const std::size_t n = GetParam();
  DynamicBitset b(n);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; i += 7) {
    b.set(i);
    ++expected;
  }
  EXPECT_EQ(b.count(), expected);
}

TEST_P(BitsetSizeSweep, HammingToSelfIsZeroAndToComplementIsN) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  DynamicBitset a(n);
  for (std::size_t i = 0; i < n; i += 2) a.set(i);
  DynamicBitset b(n);
  for (std::size_t i = 0; i < n; ++i) b.assign(i, !a.test(i));
  EXPECT_EQ(a.hamming_distance(a), 0u);
  EXPECT_EQ(a.hamming_distance(b), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetSizeSweep,
                         ::testing::Values(1, 2, 63, 64, 65, 127, 128, 129,
                                           1000));

}  // namespace
}  // namespace sel
