// Locality Sensitive Hashing over friendship bitmaps (paper Sec. III-D,
// citing Gionis/Indyk/Motwani [14]).
//
// Peers index the connectivity bitmaps of their social neighbourhood into
// |H| = K buckets; peers with similar bitmaps (connected to the same part of
// the neighbourhood) collide, and only one peer per bucket is kept as a
// long-range link — covering K distinct "zones" with K links.
//
// The family used is bit sampling for Hamming distance: a hash is the
// concatenation of `bits_per_hash` sampled bit positions, so
// P[h(a) = h(b)] = (1 - H(a,b)/dim)^bits_per_hash.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "common/rng.hpp"

namespace sel::lsh {

/// Bit-sampling hash function family for Hamming space.
class BitSamplingHasher {
 public:
  /// Samples `bits_per_hash` positions (with replacement) from [0, dim).
  BitSamplingHasher(std::size_t dim, std::size_t bits_per_hash,
                    std::uint64_t seed);

  /// Hash of a bitmap: the sampled bits packed into an integer.
  /// bitmap.size() must be >= dim used at construction? — positions beyond
  /// the bitmap read as 0 so shrunken bitmaps remain hashable.
  [[nodiscard]] std::uint64_t hash(const DynamicBitset& bitmap) const;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t bits_per_hash() const noexcept {
    return positions_.size();
  }

 private:
  std::size_t dim_;
  std::vector<std::uint32_t> positions_;
};

/// K-bucket LSH index over a peer's friends; |H| = K per the paper. An
/// entry names the friend and its position in the owner's friend list, so
/// the owner reads the bitmap from its own state instead of the index
/// holding a copy.
class LshIndex {
 public:
  struct Entry {
    std::uint32_t peer;
    std::uint32_t position;  ///< index into the owner's friend list
  };

  /// `dim` is the bitmap width (|C_p|); `buckets` is K.
  LshIndex(std::size_t dim, std::size_t buckets, std::size_t bits_per_hash,
           std::uint64_t seed);

  /// Indexes a friend that is not in the index under the bucket its bitmap
  /// hashes to. Rebuild with clear() and one append() per friend.
  void append(std::uint32_t peer, std::uint32_t position,
              const DynamicBitset& bitmap);

  [[nodiscard]] std::size_t bucket_of(const DynamicBitset& bitmap) const;

  /// Bucket id holding `peer`, or SIZE_MAX when not indexed.
  [[nodiscard]] std::size_t bucket_of_peer(std::uint32_t peer) const;

  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] const std::vector<Entry>& bucket(std::size_t b) const;

  /// Peers sharing the bucket of `peer`, excluding `peer` itself. Used by
  /// the recovery mechanism: a failed link is replaced with a same-bucket
  /// peer (Sec. III-F).
  [[nodiscard]] std::vector<std::uint32_t> same_bucket_peers(
      std::uint32_t peer) const;

  void clear();

 private:
  BitSamplingHasher hasher_;
  std::vector<std::vector<Entry>> buckets_;
  std::size_t count_ = 0;
};

}  // namespace sel::lsh
