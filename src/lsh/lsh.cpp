#include "lsh/lsh.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sel::lsh {

BitSamplingHasher::BitSamplingHasher(std::size_t dim,
                                     std::size_t bits_per_hash,
                                     std::uint64_t seed)
    : dim_(dim) {
  SEL_EXPECTS(bits_per_hash > 0 && bits_per_hash <= 64);
  Rng rng(seed);
  positions_.reserve(bits_per_hash);
  for (std::size_t i = 0; i < bits_per_hash; ++i) {
    positions_.push_back(
        dim_ == 0 ? 0 : static_cast<std::uint32_t>(rng.below(dim_)));
  }
}

std::uint64_t BitSamplingHasher::hash(const DynamicBitset& bitmap) const {
  std::uint64_t h = 0;
  for (const std::uint32_t pos : positions_) {
    h <<= 1;
    if (pos < bitmap.size() && bitmap.test(pos)) h |= 1;
  }
  return h;
}

LshIndex::LshIndex(std::size_t dim, std::size_t buckets,
                   std::size_t bits_per_hash, std::uint64_t seed)
    : hasher_(dim, bits_per_hash, seed), buckets_(std::max<std::size_t>(buckets, 1)) {}

std::size_t LshIndex::bucket_of(const DynamicBitset& bitmap) const {
  // splitmix64 spreads the (few-bit) hash across buckets uniformly.
  return static_cast<std::size_t>(splitmix64(hasher_.hash(bitmap)) %
                                  buckets_.size());
}

std::size_t LshIndex::bucket_of_peer(std::uint32_t peer) const {
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    for (const auto& e : buckets_[b]) {
      if (e.peer == peer) return b;
    }
  }
  return static_cast<std::size_t>(-1);
}

void LshIndex::append(std::uint32_t peer, std::uint32_t position,
                      const DynamicBitset& bitmap) {
  buckets_[bucket_of(bitmap)].push_back(Entry{peer, position});
  ++count_;
}

const std::vector<LshIndex::Entry>& LshIndex::bucket(std::size_t b) const {
  SEL_EXPECTS(b < buckets_.size());
  return buckets_[b];
}

std::vector<std::uint32_t> LshIndex::same_bucket_peers(
    std::uint32_t peer) const {
  std::vector<std::uint32_t> out;
  const std::size_t b = bucket_of_peer(peer);
  if (b == static_cast<std::size_t>(-1)) return out;
  for (const auto& e : buckets_[b]) {
    if (e.peer != peer) out.push_back(e.peer);
  }
  return out;
}

void LshIndex::clear() {
  for (auto& b : buckets_) b.clear();
  count_ = 0;
}

}  // namespace sel::lsh
