#include "graph/tie_strength.hpp"

#include "common/assert.hpp"

namespace sel::graph {

TieStrengthIndex::TieStrengthIndex(const SocialGraph& g)
    : g_(&g), rows_(g.num_nodes()) {}

std::size_t TieStrengthIndex::common_neighbors(NodeId u, std::size_t slot) {
  SEL_EXPECTS(u < g_->num_nodes() && slot < g_->degree(u));
  // The numerator is symmetric; canonicalize to the lower endpoint so both
  // query directions land on the same slot.
  const NodeId v = g_->neighbors(u)[slot];
  const NodeId a = u < v ? u : v;
  const std::size_t at = u < v ? slot : g_->mirror(u, slot);
  std::vector<std::uint32_t>& row = rows_[a];
  if (row.empty()) row.assign(g_->degree(a), kUnset);
  if (row[at] != kUnset) {
    ++stats_.hits;
    return row[at];
  }
  ++stats_.misses;
  const std::size_t common = g_->common_neighbors(u, v);
  row[at] = static_cast<std::uint32_t>(common);
  return common;
}

}  // namespace sel::graph
