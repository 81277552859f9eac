// Dynamic bitset tuned for friendship bitmaps: dense bit vectors of a few
// hundred bits with fast popcount-based set operations (Hamming distance,
// intersection size). Used by the LSH index and the gossip protocol.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace sel {

class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `size` bits, all clear.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + kWordBits - 1) / kWordBits, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const noexcept {
    SEL_EXPECTS(i < size_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
  }

  void set(std::size_t i) noexcept {
    SEL_EXPECTS(i < size_);
    words_[i / kWordBits] |= (1ULL << (i % kWordBits));
  }

  void reset(std::size_t i) noexcept {
    SEL_EXPECTS(i < size_);
    words_[i / kWordBits] &= ~(1ULL << (i % kWordBits));
  }

  void assign(std::size_t i, bool value) noexcept {
    if (value)
      set(i);
    else
      reset(i);
  }

  void clear_all() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  /// Number of positions where the two bitsets differ. Requires equal sizes.
  [[nodiscard]] std::size_t hamming_distance(const DynamicBitset& other) const;

  /// |a AND b| — size of the intersection. Requires equal sizes.
  [[nodiscard]] std::size_t intersection_count(const DynamicBitset& other) const;

  DynamicBitset& operator|=(const DynamicBitset& other);

  [[nodiscard]] bool operator==(const DynamicBitset& other) const = default;

  /// Grows or shrinks to `size` bits; new bits are clear.
  void resize(std::size_t size);

  /// Direct word access for hashing; trailing bits beyond size() are zero.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

 private:
  static constexpr std::size_t kWordBits = 64;

  /// Clears bits in the last word beyond size_ so popcounts stay exact.
  void trim() noexcept;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace sel
