// Publication workload after Jiang et al. [21] (paper Sec. IV): "each
// publisher posts messages at exponential rate". Publisher activity in OSNs
// is heavy-tailed, so per-publisher rates are drawn from a Zipf-weighted
// range — a few users post constantly, most rarely.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/social_graph.hpp"

namespace sel::sim {

struct Post {
  double time_s;
  graph::NodeId publisher;
};

struct WorkloadParams {
  /// Mean posts per hour for the *median* publisher.
  double median_posts_per_hour = 2.0;
  /// Zipf exponent for the per-publisher rate skew (0 = uniform rates).
  double rate_skew = 1.0;
  /// Fraction of users that ever publish.
  double publisher_fraction = 1.0;
};

class PublicationWorkload {
 public:
  /// Assigns each user a posting rate (possibly zero).
  PublicationWorkload(const graph::SocialGraph& g, WorkloadParams params,
                      std::uint64_t seed);

  /// Posts in [0, horizon_s), sorted by time.
  [[nodiscard]] std::vector<Post> generate(double horizon_s,
                                           std::uint64_t seed) const;

  /// Exactly `count` posts, publishers drawn proportionally to rate.
  [[nodiscard]] std::vector<graph::NodeId> sample_publishers(
      std::size_t count, std::uint64_t seed) const;

  [[nodiscard]] double rate_per_s(graph::NodeId user) const {
    return rates_[user];
  }

 private:
  std::vector<double> rates_;  ///< posts per second per user
};

}  // namespace sel::sim
