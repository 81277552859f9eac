#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace sel {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  // Two-sided 95% t critical values for small n; ~1.96 for large n.
  static constexpr double kT[] = {0,     0,     12.71, 4.303, 3.182, 2.776,
                                  2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
                                  2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
                                  2.110, 2.101, 2.093, 2.086, 2.080, 2.074,
                                  2.069, 2.064, 2.060, 2.056, 2.052, 2.048,
                                  2.045};
  const double t = n_ <= 30 ? kT[n_] : 1.96;
  return t * stddev() / std::sqrt(static_cast<double>(n_));
}

}  // namespace sel
