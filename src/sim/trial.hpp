// Multi-trial experiment runner. The paper reports every metric as the
// average of 100 independent trials; this wraps the seed derivation,
// aggregation and progress logging that every harness shares.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/stats.hpp"

namespace sel::sim {

/// A single trial reports named scalar metrics.
using MetricMap = std::map<std::string, double>;

struct TrialSummary {
  std::map<std::string, RunningStats> metrics;

  [[nodiscard]] double mean(const std::string& name) const;
  [[nodiscard]] double ci95(const std::string& name) const;
};

/// Runs `body(trial_seed)` for `trials` independent trials. Trial seeds are
/// derived from `root_seed` with SplitMix64, so any subset of trials can be
/// reproduced in isolation. Trials run one after another on the calling
/// thread, each folded into the summary as it finishes.
[[nodiscard]] TrialSummary run_trials(
    std::size_t trials, std::uint64_t root_seed,
    const std::function<MetricMap(std::uint64_t)>& body,
    const std::string& label = "");

}  // namespace sel::sim
