// Statistics accumulator used by every experiment harness: streaming
// mean/variance (Welford) and Student-t confidence intervals for multi-trial
// averaging (the paper reports averages over 100 independent trials).
#pragma once

#include <cstddef>

namespace sel {

/// Streaming mean / variance / extrema accumulator (Welford's algorithm).
/// O(1) memory; numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< Sample variance (n-1).
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(n_); }

  /// Half-width of the ~95% confidence interval on the mean (normal
  /// approximation for n >= 30, t-table lookup below).
  [[nodiscard]] double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace sel
