#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace sel::sim {

PublicationWorkload::PublicationWorkload(const graph::SocialGraph& g,
                                         WorkloadParams params,
                                         std::uint64_t seed) {
  SEL_EXPECTS(params.median_posts_per_hour > 0.0);
  SEL_EXPECTS(params.publisher_fraction > 0.0 &&
              params.publisher_fraction <= 1.0);
  Rng rng(seed);
  const std::size_t n = g.num_nodes();
  rates_.assign(n, 0.0);
  const double median_rate_s = params.median_posts_per_hour / 3600.0;
  for (std::size_t u = 0; u < n; ++u) {
    if (!rng.chance(params.publisher_fraction)) continue;
    // Zipf-weighted multiplier around the median rate. zipf(1000, s) has
    // median near ~2 for s=1; normalize so typical draws sit around 1.
    double multiplier = 1.0;
    if (params.rate_skew > 0.0) {
      multiplier = static_cast<double>(rng.zipf(1000, params.rate_skew)) / 2.0;
    }
    rates_[u] = median_rate_s * multiplier;
  }
}

std::vector<Post> PublicationWorkload::generate(double horizon_s,
                                                std::uint64_t seed) const {
  SEL_EXPECTS(horizon_s >= 0.0);
  Rng rng(seed);
  std::vector<Post> posts;
  for (graph::NodeId u = 0; u < rates_.size(); ++u) {
    const double rate = rates_[u];
    if (rate <= 0.0) continue;
    // Poisson process: exponential inter-arrival times.
    double t = rng.exponential(rate);
    while (t < horizon_s) {
      posts.push_back(Post{t, u});
      t += rng.exponential(rate);
    }
  }
  std::sort(posts.begin(), posts.end(),
            [](const Post& a, const Post& b) { return a.time_s < b.time_s; });
  return posts;
}

std::vector<graph::NodeId> PublicationWorkload::sample_publishers(
    std::size_t count, std::uint64_t seed) const {
  Rng rng(seed);
  double total = 0.0;
  for (const double r : rates_) total += r;
  std::vector<graph::NodeId> out;
  out.reserve(count);
  if (total <= 0.0) return out;
  // Cumulative-rate inversion per draw; count is small in the harnesses.
  std::vector<double> cumulative(rates_.size());
  double acc = 0.0;
  for (std::size_t u = 0; u < rates_.size(); ++u) {
    acc += rates_[u];
    cumulative[u] = acc;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const double pick = rng.uniform() * total;
    const auto it =
        std::lower_bound(cumulative.begin(), cumulative.end(), pick);
    out.push_back(static_cast<graph::NodeId>(it - cumulative.begin()));
  }
  return out;
}

}  // namespace sel::sim
