// Compact immutable social graph.
//
// The paper's pub/sub model (Sec. II-B) is a social graph G = (V, E) where a
// publisher's subscribers are exactly its social friends. We store the graph
// in CSR form with sorted adjacency lists, which makes common-neighbour
// counting (the social-strength numerator, Eq. 2) a linear merge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "obs/memory.hpp"

namespace sel::graph {

/// Index of a social user; dense in [0, num_nodes).
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Undirected simple graph in CSR form. Build with GraphBuilder.
class SocialGraph {
 public:
  SocialGraph() = default;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    SEL_EXPECTS(u < num_nodes());
    return offsets_[u + 1] - offsets_[u];
  }

  /// Sorted neighbour list of u.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    SEL_EXPECTS(u < num_nodes());
    return std::span<const NodeId>(adjacency_.data() + offsets_[u],
                                   offsets_[u + 1] - offsets_[u]);
  }

  /// Position of u in the list of its i-th friend v = neighbors(u)[i], so
  /// that neighbors(v)[mirror(u, i)] == u. O(1): the reverse-edge offset.
  [[nodiscard]] std::size_t mirror(NodeId u, std::size_t i) const {
    SEL_EXPECTS(u < num_nodes() && i < degree(u));
    return mirror_[offsets_[u] + i];
  }

  /// O(log degree) membership test on the sorted adjacency list.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// |N(u) ∩ N(v)| via linear merge of the sorted lists.
  [[nodiscard]] std::size_t common_neighbors(NodeId u, NodeId v) const;

  /// Social strength s(u,v) = |C_u ∩ C_v| / |C_u| (paper Eq. 2). Note the
  /// asymmetry: normalized by u's own friend count. Zero when u has no
  /// friends.
  [[nodiscard]] double social_strength(NodeId u, NodeId v) const;

  [[nodiscard]] double average_degree() const noexcept {
    const std::size_t n = num_nodes();
    return n == 0 ? 0.0
                  : 2.0 * static_cast<double>(num_edges()) /
                        static_cast<double>(n);
  }

  [[nodiscard]] std::size_t max_degree() const noexcept;

 private:
  friend class GraphBuilder;

  // CSR storage is the process's largest long-lived allocation at scale;
  // attributed to `mem.graph` (obs/memory.hpp). Exposed only through spans,
  // so the allocator is invisible to callers.
  obs::AccountedVector<std::size_t, obs::Subsystem::kGraph>
      offsets_;  // size num_nodes + 1
  obs::AccountedVector<NodeId, obs::Subsystem::kGraph>
      adjacency_;  // concatenated sorted neighbour lists
  obs::AccountedVector<std::uint32_t, obs::Subsystem::kGraph>
      mirror_;  // aligned with adjacency_: see mirror()
};

/// Accumulates undirected edges, deduplicates, drops self-loops, and
/// finalizes into a CSR SocialGraph.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }

  /// Records the undirected edge {u, v}; self-loops and duplicates are
  /// removed at finalize().
  void add_edge(NodeId u, NodeId v) {
    SEL_EXPECTS(u < num_nodes_ && v < num_nodes_);
    edges_.emplace_back(u, v);
  }

  [[nodiscard]] std::size_t pending_edges() const noexcept {
    return edges_.size();
  }

  /// Builds the CSR graph. The builder may be reused afterwards (edges kept).
  [[nodiscard]] SocialGraph build() const;

 private:
  std::size_t num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace sel::graph
