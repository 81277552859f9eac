#include "sim/trial.hpp"

#include "common/assert.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sel::sim {

double TrialSummary::mean(const std::string& name) const {
  const auto it = metrics.find(name);
  SEL_EXPECTS(it != metrics.end());
  return it->second.mean();
}

double TrialSummary::ci95(const std::string& name) const {
  const auto it = metrics.find(name);
  SEL_EXPECTS(it != metrics.end());
  return it->second.ci95_halfwidth();
}

TrialSummary run_trials(std::size_t trials, std::uint64_t root_seed,
                        const std::function<MetricMap(std::uint64_t)>& body,
                        const std::string& label) {
  SEL_EXPECTS(trials > 0);
  static obs::Counter& trials_c =
      obs::MetricsRegistry::global().counter("sim.trials_run");
  TrialSummary summary;
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t trial_seed = derive_seed(root_seed, t);
    MetricMap result;
    {
      SEL_TRACE_SCOPE("sim.trial");
      result = body(trial_seed);
    }
    for (const auto& [name, value] : result) {
      summary.metrics[name].add(value);
    }
    trials_c.add(1);
    if (!label.empty()) {
      log_info(label + ": trial " + std::to_string(t + 1) + "/" +
               std::to_string(trials) + " done");
    }
  }
  return summary;
}

}  // namespace sel::sim
