// Cumulative Moving Average availability tracker (paper Sec. III-F).
//
// Each peer's online behaviour is summarized as the CMA of binary
// availability samples: cma_{n+1} = cma_n + (x_{n+1} - cma_n) / (n + 1).
// A high CMA on an unresponsive peer indicates a transient failure (keep the
// link); a low CMA indicates a mostly-offline user (replace the link).
//
// The same signal drives mailbox replica placement (DESIGN.md §17): the
// weighted-rendezvous scoring below turns a candidate's CMA into a
// deterministic placement rank, so undelivered messages are stored on peers
// with a long-term-availability track record ("Towards Social Profile Based
// Overlays" motivates exactly this use of the CMA).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace sel::core {

/// The clamped draw placement_score() raises to 1/weight. For cma ≤ 1 and
/// bias ≥ 0 the weight is at most 1, so the exponent is at least 1 and the
/// score never exceeds this bound: a ranking can drop a candidate whose
/// bound cannot beat its worst kept score without computing the score.
[[nodiscard]] inline double placement_score_bound(double u01) noexcept {
  return std::clamp(u01, 1e-12, 1.0);
}

/// Weighted rendezvous-hash placement score. `u01` is the candidate's pure
/// rendezvous draw in [0,1) (a hash of (seed, subscriber, candidate));
/// `cma` is its availability average; `bias` controls how strongly
/// availability dominates the hash (0 = pure rendezvous hashing). Uses the
/// classic u^(1/w) weighting, so scores of different candidates stay
/// comparable and the top-k set is stable under candidate-list growth —
/// adding a candidate never reshuffles the relative order of the others.
/// Higher is better.
[[nodiscard]] inline double placement_score(double cma, double u01,
                                            double bias = 2.0) noexcept {
  // Crashed-looking peers (CMA ~ 0) still get a rank — a floor keeps the
  // weight positive so exhausted candidate pools degrade gracefully instead
  // of dividing by zero.
  constexpr double kCmaFloor = 1e-3;
  const double weight = std::pow(std::max(cma, kCmaFloor), bias);
  return std::pow(placement_score_bound(u01), 1.0 / weight);
}

class Cma {
 public:
  /// Records one availability sample (1 = online, 0 = offline).
  void update(bool online) noexcept {
    ++samples_;
    value_ += ((online ? 1.0 : 0.0) - value_) / static_cast<double>(samples_);
  }

  /// Average availability so far; peers with no samples are optimistically
  /// treated as fully available (a freshly met peer was just online).
  [[nodiscard]] double value() const noexcept {
    return samples_ == 0 ? 1.0 : value_;
  }

  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }

  /// This peer's mailbox-placement score for a rendezvous draw (see the
  /// free function above).
  [[nodiscard]] double placement_score(double u01,
                                       double bias = 2.0) const noexcept {
    return core::placement_score(value(), u01, bias);
  }

 private:
  double value_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace sel::core
