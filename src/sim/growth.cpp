#include "sim/growth.hpp"

#include <algorithm>
#include <cmath>

namespace sel::sim {

std::vector<JoinEvent> growth_schedule(const graph::SocialGraph& g,
                                       const GrowthParams& params,
                                       std::uint64_t seed) {
  SEL_EXPECTS(params.initial_rate >= 1.0);
  SEL_EXPECTS(params.decay >= 0.0);
  const std::size_t n = g.num_nodes();
  std::vector<JoinEvent> schedule;
  schedule.reserve(n);
  if (n == 0) return schedule;

  Rng rng(seed);
  std::vector<bool> joined(n, false);
  // Frontier: not-yet-joined users with at least one joined friend, stored
  // with one entry per joined friend so draws favour well-connected users
  // (users with many joined friends are likelier to be invited) — matching
  // the preferential flavour of the growth model.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> frontier;  // (user, inviter)

  std::size_t remaining = n;
  auto join = [&](graph::NodeId user, graph::NodeId inviter, std::size_t step) {
    joined[user] = true;
    --remaining;
    schedule.push_back(JoinEvent{user, inviter, step});
    for (const graph::NodeId friend_id : g.neighbors(user)) {
      if (!joined[friend_id]) frontier.emplace_back(friend_id, user);
    }
  };

  // Seed user chosen at random (paper: "selecting a social user u at random").
  join(static_cast<graph::NodeId>(rng.below(n)), graph::kInvalidNode, 0);

  std::size_t step = 1;
  while (remaining > 0) {
    const double rate =
        params.initial_rate * std::exp(-params.decay * static_cast<double>(step));
    const auto batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate)));
    for (std::size_t b = 0; b < batch && remaining > 0; ++b) {
      // Draw an inviteable user; retire stale frontier entries lazily.
      graph::NodeId user = graph::kInvalidNode;
      graph::NodeId inviter = graph::kInvalidNode;
      while (!frontier.empty()) {
        const std::size_t idx = rng.below(frontier.size());
        const auto [candidate, via] = frontier[idx];
        frontier[idx] = frontier.back();
        frontier.pop_back();
        if (!joined[candidate]) {
          user = candidate;
          inviter = via;
          break;
        }
      }
      if (user == graph::kInvalidNode) {
        // No frontier: start a new component with an independent subscriber.
        // Scan from a random offset for an unjoined node.
        const std::size_t start = rng.below(n);
        for (std::size_t d = 0; d < n; ++d) {
          const auto candidate =
              static_cast<graph::NodeId>((start + d) % n);
          if (!joined[candidate]) {
            user = candidate;
            break;
          }
        }
        SEL_ASSERT(user != graph::kInvalidNode);
      }
      join(user, inviter, step);
    }
    ++step;
  }
  return schedule;
}

}  // namespace sel::sim
