// Fixed-bin histograms used by the figure harnesses (identifier
// distributions, load-per-degree buckets, hop-count distributions).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sel {

/// Histogram over [lo, hi) with uniform bins. Values outside the range are
/// clamped into the first/last bin so totals are preserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;

  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double bin_width() const noexcept { return width_; }

  /// Weight accumulated in bin i.
  [[nodiscard]] double count(std::size_t i) const;
  /// Left edge of bin i.
  [[nodiscard]] double bin_lo(std::size_t i) const;

  [[nodiscard]] double total() const noexcept { return total_; }

  /// Coefficient of variation of the bin weights: stddev/mean. 0 for a
  /// perfectly uniform histogram; grows as the mass clumps. Used to quantify
  /// identifier clustering in Fig. 8.
  [[nodiscard]] double clumpiness() const noexcept;

  /// Shannon entropy of the bin distribution, in bits; log2(bins) when
  /// uniform. The identifier-distribution harness reports both.
  [[nodiscard]] double entropy_bits() const noexcept;

  /// Simple ASCII rendering, one row per bin (for console output).
  [[nodiscard]] std::string render(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace sel
