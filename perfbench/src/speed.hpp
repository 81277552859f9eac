// Speed of the box, measured with a fixed reference kernel.
//
// A shared box runs the same code up to a quarter slower for a minute at a
// time: other tenants contend for the cores, their caches and memory, and
// slow everything at once. A median over the passes of one run cannot
// remove a slowdown that lasts the whole run. So a run also times this
// kernel in short bursts between its passes, and reports its wall-clock
// metrics scaled by (kReferenceS / the median kernel time of the run) to
// the power kSpeedElasticity: the times the box would read at its
// reference speed. The kernel mixes what the pipeline does (random draws,
// hash-map inserts, a sort and dependent reads over a few MB) and calls no
// repository code, so no change to the program moves it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "recorder.hpp"

namespace perfbench {

/// Typical time of one reference_kernel_s() call on the shared 4-core Intel
/// Xeon box the benchmark was tuned on (RelWithDebInfo build; about 0.05 to
/// 0.08 s over one afternoon). Scaled times are wall-clock seconds as that
/// box reads them when the kernel takes this long.
inline constexpr double kReferenceS = 0.050;

/// How much the pipeline slows when the kernel slows, as a power: fitted on
/// six sets of five runs of the three workloads on that box (made with this
/// kernel and with a variant that used a 1 MB array), where the
/// pipeline's times rose by about 0.75% for every 1% the kernel's did
/// (construction moves with the kernel one for one, chaos dissemination by
/// about half). It left the quartile spread of wall_s at or below 0.11 in
/// every set, against up to 0.31 unscaled and 0.14 at a power of 1.
inline constexpr double kSpeedElasticity = 0.75;

/// Where the kernel leaves its result, so the compiler cannot drop it.
inline volatile std::uint64_t reference_sink = 0;

/// Runs the reference kernel once; returns its wall-clock seconds.
inline double reference_kernel_s() {
  constexpr std::size_t kValues = std::size_t{1} << 19;
  const auto start = Clock::now();
  std::vector<std::uint32_t> v(kValues);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = static_cast<std::uint32_t>(x >> 32);
  }
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (std::size_t i = 0; i < kValues; ++i) counts[v[i] >> 16] += i;
  std::sort(v.begin(), v.end());
  std::uint64_t sum = counts.size();
  std::uint32_t p = 0;
  for (std::size_t i = 0; i < kValues; ++i) {
    p = v[p % kValues];
    sum += p;
  }
  reference_sink = sum;
  return seconds_since(start);
}

}  // namespace perfbench
