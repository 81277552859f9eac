// Network-growth model after Zhu et al. [19] (paper Sec. IV):
//
//   "We initiate our experiments by selecting a social user u from the data
//    set at random. Thereafter, we insert into the social network a portion
//    of the user u's social friends [...] social users establish friendship
//    connections at high rate in the beginning of the join process, and this
//    rate decreases exponentially over time."
//
// The model produces a join schedule over an existing (final) social graph:
// each event is a user joining, together with the already-joined friend who
// invited them (feeding Alg. 1 projection), or no inviter when the user
// subscribes independently (new connected component / isolated node).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/social_graph.hpp"

namespace sel::sim {

struct JoinEvent {
  graph::NodeId user;
  /// The friend whose invitation brought this user in, or kInvalidNode when
  /// the user subscribed independently.
  graph::NodeId inviter;
  /// Index of the growth step (iteration) this join happened in.
  std::size_t step;
};

struct GrowthParams {
  /// Initial number of joins per step (decays exponentially).
  double initial_rate = 32.0;
  /// Exponential decay constant per step; rate(t) = initial * exp(-decay*t),
  /// floored at 1 join per step so growth always completes.
  double decay = 0.01;
};

/// Computes the full join schedule: every node of `g` joins exactly once.
/// Invited users join next to their inviter; users with no joined friends
/// (seeds of new components) join independently.
[[nodiscard]] std::vector<JoinEvent> growth_schedule(const graph::SocialGraph& g,
                                                     const GrowthParams& params,
                                                     std::uint64_t seed);

}  // namespace sel::sim
