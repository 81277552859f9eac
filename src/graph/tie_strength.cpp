#include "graph/tie_strength.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sel::graph {

TieStrengthIndex::TieStrengthIndex(const SocialGraph& g)
    : g_(&g), rows_(g.num_nodes()) {}

std::size_t TieStrengthIndex::common_neighbors(NodeId u, NodeId v) {
  SEL_EXPECTS(u < g_->num_nodes() && v < g_->num_nodes());
  if (u == v) {
    // N(u) ∩ N(u) = N(u); no merge, and nothing worth caching.
    ++stats_.uncacheable;
    return g_->degree(u);
  }
  // The numerator is symmetric; canonicalize to the lower endpoint so both
  // query directions land on the same slot.
  const NodeId a = std::min(u, v);
  const NodeId b = std::max(u, v);
  const auto nbrs = g_->neighbors(a);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
  if (it == nbrs.end() || *it != b) {
    // Non-edge: no slot. Merge directly — the repeat-query savings all come
    // from edges (the gossip loop only pairs friends).
    ++stats_.uncacheable;
    return g_->common_neighbors(u, v);
  }
  const auto slot = static_cast<std::size_t>(it - nbrs.begin());
  std::vector<std::uint32_t>& row = rows_[a];
  if (row.empty()) row.assign(nbrs.size(), kUnset);
  if (row[slot] != kUnset) {
    ++stats_.hits;
    return row[slot];
  }
  ++stats_.misses;
  const std::size_t common = g_->common_neighbors(a, b);
  row[slot] = static_cast<std::uint32_t>(common);
  return common;
}

}  // namespace sel::graph
