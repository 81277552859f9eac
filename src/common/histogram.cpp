#include "common/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace sel {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  SEL_EXPECTS(hi > lo);
  SEL_EXPECTS(bins > 0);
}

void Histogram::add(double x, double weight) noexcept {
  auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::count(std::size_t i) const {
  SEL_EXPECTS(i < counts_.size());
  return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  SEL_EXPECTS(i < counts_.size());
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::clumpiness() const noexcept {
  const double mean = total_ / static_cast<double>(counts_.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const double c : counts_) var += (c - mean) * (c - mean);
  var /= static_cast<double>(counts_.size());
  return std::sqrt(var) / mean;
}

double Histogram::entropy_bits() const noexcept {
  if (total_ <= 0.0) return 0.0;
  double h = 0.0;
  for (const double c : counts_) {
    if (c <= 0.0) continue;
    const double p = c / total_;
    h -= p * std::log2(p);
  }
  return h;
}

std::string Histogram::render(std::size_t max_width) const {
  std::string out;
  const double peak =
      counts_.empty() ? 0.0 : *std::max_element(counts_.begin(), counts_.end());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "[%6.3f) ", bin_lo(i));
    out += label;
    const auto bar =
        peak > 0.0 ? static_cast<std::size_t>(counts_[i] / peak *
                                              static_cast<double>(max_width))
                   : 0;
    out.append(bar, '#');
    out.push_back('\n');
  }
  return out;
}

}  // namespace sel
