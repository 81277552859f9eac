#include "graph/metrics.hpp"

#include <cmath>
#include <numeric>
#include <queue>
#include <vector>

namespace sel::graph {

double clustering_coefficient(const SocialGraph& g, std::size_t samples,
                              std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return 0.0;
  Rng rng(seed);
  std::vector<NodeId> nodes;
  if (samples >= n) {
    nodes.resize(n);
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
  } else {
    nodes.reserve(samples);
    for (std::size_t i = 0; i < samples; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.below(n)));
    }
  }
  double total = 0.0;
  for (const NodeId u : nodes) {
    const auto nbrs = g.neighbors(u);
    const std::size_t d = nbrs.size();
    if (d < 2) continue;
    std::size_t closed = 0;
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = i + 1; j < d; ++j) {
        if (g.has_edge(nbrs[i], nbrs[j])) ++closed;
      }
    }
    total += 2.0 * static_cast<double>(closed) /
             (static_cast<double>(d) * static_cast<double>(d - 1));
  }
  return total / static_cast<double>(nodes.size());
}

std::size_t connected_components(const SocialGraph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<bool> visited(n, false);
  std::size_t components = 0;
  std::queue<NodeId> frontier;
  for (NodeId start = 0; start < n; ++start) {
    if (visited[start]) continue;
    ++components;
    visited[start] = true;
    frontier.push(start);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (const NodeId v : g.neighbors(u)) {
        if (!visited[v]) {
          visited[v] = true;
          frontier.push(v);
        }
      }
    }
  }
  return components;
}

double powerlaw_alpha(const SocialGraph& g, std::size_t d_min) {
  // Discrete MLE: alpha ≈ 1 + n / sum(ln(d_i / (d_min - 0.5))).
  double log_sum = 0.0;
  std::size_t n = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::size_t d = g.degree(u);
    if (d < d_min) continue;
    log_sum += std::log(static_cast<double>(d) /
                        (static_cast<double>(d_min) - 0.5));
    ++n;
  }
  if (n < 10 || log_sum <= 0.0) return 0.0;
  return 1.0 + static_cast<double>(n) / log_sum;
}

}  // namespace sel::graph
