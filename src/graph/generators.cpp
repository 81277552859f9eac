#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/flat_set.hpp"

namespace sel::graph {

SocialGraph holme_kim(std::size_t n, std::size_t m, double triad_p,
                      std::uint64_t seed) {
  SEL_EXPECTS(m >= 1);
  SEL_EXPECTS(n > m);
  SEL_EXPECTS(triad_p >= 0.0 && triad_p <= 1.0);
  Rng rng(seed);
  GraphBuilder builder(n);
  // repeated_nodes holds each endpoint once per incident edge, so a uniform
  // draw from it is a degree-proportional draw (standard BA trick).
  std::vector<NodeId> repeated_nodes;
  repeated_nodes.reserve(2 * n * m);
  std::vector<std::vector<NodeId>> adj(n);
  auto link = [&](NodeId u, NodeId v) {
    builder.add_edge(u, v);
    adj[u].push_back(v);
    adj[v].push_back(u);
    repeated_nodes.push_back(u);
    repeated_nodes.push_back(v);
  };
  // Seed clique over the first m+1 nodes so preferential attachment has
  // targets with nonzero degree.
  for (NodeId u = 0; u <= m; ++u) {
    for (NodeId v = u + 1; v <= m; ++v) link(u, v);
  }
  // FlatSet: the link loop below iterates the drawn target set, and its
  // order feeds back into repeated_nodes (hence every later draw) — it must
  // be a function of the seed alone, not of hash-table iteration order.
  FlatSet<NodeId> targets;
  for (NodeId u = static_cast<NodeId>(m + 1); u < n; ++u) {
    targets.clear();
    NodeId last_target = kInvalidNode;
    while (targets.size() < m) {
      NodeId candidate;
      const bool try_triad =
          last_target != kInvalidNode && rng.chance(triad_p);
      if (try_triad) {
        // Triad closure: connect to a random neighbour of the last target.
        const auto& nbrs = adj[last_target];
        candidate = nbrs[rng.below(nbrs.size())];
      } else {
        candidate = repeated_nodes[rng.below(repeated_nodes.size())];
      }
      if (candidate == u || targets.contains(candidate)) {
        // Fall back to preferential attachment on a bad triad draw so the
        // loop always terminates.
        last_target = kInvalidNode;
        continue;
      }
      targets.insert(candidate);
      last_target = candidate;
    }
    for (const NodeId t : targets) link(u, t);
  }
  return builder.build();
}

SocialGraph degree_preserving_rewire(const SocialGraph& g,
                                     double swaps_per_edge,
                                     std::uint64_t seed) {
  SEL_EXPECTS(swaps_per_edge >= 0.0);
  // Materialize the edge list, then repeatedly pick two edges (a,b), (c,d)
  // and swap endpoints to (a,d), (c,b) when that creates neither self-loops
  // nor duplicates.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  if (edges.size() < 2) {
    GraphBuilder builder(g.num_nodes());
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
    return builder.build();
  }
  std::unordered_set<std::uint64_t> present;
  present.reserve(edges.size() * 2);
  auto key = [](NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
           std::max(a, b);
  };
  for (const auto& [u, v] : edges) present.insert(key(u, v));

  Rng rng(seed);
  const auto target = static_cast<std::size_t>(
      swaps_per_edge * static_cast<double>(edges.size()));
  std::size_t done = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = target * 20 + 100;
  while (done < target && attempts < max_attempts) {
    ++attempts;
    const std::size_t i = rng.below(edges.size());
    const std::size_t j = rng.below(edges.size());
    if (i == j) continue;
    auto [a, b] = edges[i];
    auto [c, d] = edges[j];
    // Randomize orientation so both swap variants are reachable.
    if (rng.chance(0.5)) std::swap(a, b);
    if (rng.chance(0.5)) std::swap(c, d);
    if (a == d || c == b || a == c || b == d) continue;
    if (present.contains(key(a, d)) || present.contains(key(c, b))) continue;
    present.erase(key(edges[i].first, edges[i].second));
    present.erase(key(edges[j].first, edges[j].second));
    edges[i] = {std::min(a, d), std::max(a, d)};
    edges[j] = {std::min(c, b), std::max(c, b)};
    present.insert(key(a, d));
    present.insert(key(c, b));
    ++done;
  }
  GraphBuilder builder(g.num_nodes());
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return builder.build();
}

}  // namespace sel::graph
