#include "graph/social_graph.hpp"

#include <algorithm>

namespace sel::graph {

bool SocialGraph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::size_t SocialGraph::common_neighbors(NodeId u, NodeId v) const {
  const auto a = neighbors(u);
  const auto b = neighbors(v);
  std::size_t count = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double SocialGraph::social_strength(NodeId u, NodeId v) const {
  const std::size_t du = degree(u);
  if (du == 0) return 0.0;
  return static_cast<double>(common_neighbors(u, v)) /
         static_cast<double>(du);
}

std::size_t SocialGraph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) best = std::max(best, degree(u));
  return best;
}

SocialGraph GraphBuilder::build() const {
  // Normalize to (min, max) pairs, sort, unique, then fill CSR both ways.
  std::vector<std::pair<NodeId, NodeId>> normalized;
  normalized.reserve(edges_.size());
  for (const auto& [u, v] : edges_) {
    if (u == v) continue;
    normalized.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(normalized.begin(), normalized.end());
  normalized.erase(std::unique(normalized.begin(), normalized.end()),
                   normalized.end());

  SocialGraph g;
  g.offsets_.assign(num_nodes_ + 1, 0);
  for (const auto& [u, v] : normalized) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.adjacency_.resize(normalized.size() * 2);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : normalized) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  // Adjacency lists are already sorted for the lower endpoint ordering only;
  // sort each list to guarantee the invariant.
  for (NodeId u = 0; u < num_nodes_; ++u) {
    std::sort(g.adjacency_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]),
              g.adjacency_.begin() +
                  static_cast<std::ptrdiff_t>(g.offsets_[u + 1]));
  }
  // Reverse-edge offsets in one pass: walking u ascending visits each
  // friend v's sorted list in order, so u's slot there is v's next free one.
  g.mirror_.resize(g.adjacency_.size());
  std::fill(cursor.begin(), cursor.end(), 0);
  for (std::size_t e = 0; e < g.adjacency_.size(); ++e) {
    g.mirror_[e] = static_cast<std::uint32_t>(cursor[g.adjacency_[e]]++);
  }
  return g;
}

}  // namespace sel::graph
