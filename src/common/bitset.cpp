#include "common/bitset.hpp"

#include <bit>

namespace sel {

std::size_t DynamicBitset::count() const noexcept {
  std::size_t total = 0;
  for (const auto w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t DynamicBitset::hamming_distance(const DynamicBitset& other) const {
  SEL_EXPECTS(size_ == other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  }
  return total;
}

std::size_t DynamicBitset::intersection_count(const DynamicBitset& other) const {
  SEL_EXPECTS(size_ == other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return total;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  SEL_EXPECTS(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

void DynamicBitset::resize(std::size_t size) {
  size_ = size;
  words_.resize((size + kWordBits - 1) / kWordBits, 0);
  trim();
}

void DynamicBitset::trim() noexcept {
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

}  // namespace sel
