#include "lsh/lsh.hpp"

#include <gtest/gtest.h>

namespace sel::lsh {
namespace {

DynamicBitset make_bitmap(std::size_t dim, std::initializer_list<std::size_t> bits) {
  DynamicBitset b(dim);
  for (const auto i : bits) b.set(i);
  return b;
}

TEST(BitSamplingHasher, Deterministic) {
  BitSamplingHasher h(64, 12, 1);
  const auto b = make_bitmap(64, {1, 5, 30});
  EXPECT_EQ(h.hash(b), h.hash(b));
}

TEST(BitSamplingHasher, EqualBitmapsCollide) {
  BitSamplingHasher h(32, 10, 2);
  const auto a = make_bitmap(32, {3, 7, 21});
  const auto b = make_bitmap(32, {3, 7, 21});
  EXPECT_EQ(h.hash(a), h.hash(b));
}

TEST(BitSamplingHasher, HashWidthBounded) {
  BitSamplingHasher h(16, 8, 3);
  const auto b = make_bitmap(16, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_LT(h.hash(b), 1ULL << 8);
}

TEST(BitSamplingHasher, CollisionProbabilityDecreasesWithHamming) {
  // Statistical LSH property: close bitmaps collide more often than far
  // ones, across independently drawn hash functions.
  const std::size_t dim = 128;
  const auto base = make_bitmap(dim, {1, 10, 20, 30, 40, 50, 60, 70});
  auto near = base;
  near.set(90);  // hamming 1
  DynamicBitset far(dim);
  for (std::size_t i = 0; i < dim; i += 2) far.set(i);  // hamming ~60

  int near_collisions = 0;
  int far_collisions = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    BitSamplingHasher h(dim, 8, seed);
    if (h.hash(base) == h.hash(near)) ++near_collisions;
    if (h.hash(base) == h.hash(far)) ++far_collisions;
  }
  EXPECT_GT(near_collisions, far_collisions * 3);
}

TEST(BitSamplingHasher, ShorterBitmapReadsAsZeros) {
  BitSamplingHasher h(64, 10, 5);
  DynamicBitset small(8);  // positions >= 8 read as 0
  DynamicBitset empty64(64);
  EXPECT_EQ(h.hash(small), h.hash(empty64));
}

TEST(LshIndex, InsertAndBucketLookup) {
  LshIndex index(32, 4, 8, 1);
  const auto b = make_bitmap(32, {1, 2});
  index.append(7, 3, b);
  EXPECT_EQ(index.size(), 1u);
  const std::size_t bucket = index.bucket_of(b);
  ASSERT_LT(bucket, index.num_buckets());
  ASSERT_EQ(index.bucket(bucket).size(), 1u);
  EXPECT_EQ(index.bucket(bucket)[0].peer, 7u);
  EXPECT_EQ(index.bucket(bucket)[0].position, 3u);
  EXPECT_EQ(index.bucket_of_peer(7), bucket);
}

TEST(LshIndex, IdenticalBitmapsShareBucket) {
  LshIndex index(64, 8, 10, 4);
  const auto b = make_bitmap(64, {5, 15, 25});
  index.append(1, 0, b);
  index.append(2, 1, b);
  EXPECT_EQ(index.bucket_of_peer(1), index.bucket_of_peer(2));
}

TEST(LshIndex, SameBucketPeersExcludesSelf) {
  LshIndex index(64, 8, 10, 5);
  const auto b = make_bitmap(64, {5, 15, 25});
  index.append(1, 0, b);
  index.append(2, 1, b);
  index.append(3, 2, b);
  const auto peers = index.same_bucket_peers(2);
  EXPECT_EQ(peers.size(), 2u);
  for (const auto p : peers) EXPECT_NE(p, 2u);
}

TEST(LshIndex, SameBucketPeersOfUnknownIsEmpty) {
  LshIndex index(64, 8, 10, 6);
  EXPECT_TRUE(index.same_bucket_peers(42).empty());
}

TEST(LshIndex, ClearEmptiesEverything) {
  LshIndex index(32, 4, 8, 7);
  index.append(1, 0, make_bitmap(32, {1}));
  index.append(2, 1, make_bitmap(32, {2}));
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  for (std::size_t b = 0; b < index.num_buckets(); ++b) {
    EXPECT_TRUE(index.bucket(b).empty());
  }
}

TEST(LshIndex, SpreadsDistinctBitmapsAcrossBuckets) {
  LshIndex index(128, 8, 12, 8);
  for (std::uint32_t p = 0; p < 64; ++p) {
    DynamicBitset b(128);
    for (std::size_t i = 0; i < 128; ++i) {
      if (splitmix64(p * 131 + i) & 1) b.set(i);
    }
    index.append(p, p, b);
  }
  std::size_t nonempty = 0;
  for (std::size_t b = 0; b < index.num_buckets(); ++b) {
    if (!index.bucket(b).empty()) ++nonempty;
  }
  EXPECT_GE(nonempty, 6u);  // of 8 buckets
}

TEST(LshIndex, AtLeastOneBucketAlways) {
  LshIndex index(16, 0, 4, 9);  // buckets clamped to >= 1
  EXPECT_EQ(index.num_buckets(), 1u);
}

}  // namespace
}  // namespace sel::lsh
