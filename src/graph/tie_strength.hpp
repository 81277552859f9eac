// Memoized tie-strength queries over an immutable SocialGraph.
//
// The gossip loop (Alg. 3-4) computes |N(u) ∩ N(v)| for the same friend
// pairs round after round: each peer re-samples its friends every round and
// both endpoints of a pair ask for the same symmetric numerator. On a CSR
// graph every query is a fresh linear merge of two adjacency lists — cheap
// once, wasteful a hundred times. This index caches the merge result per
// *edge*: one slot per (node, friend-index) pair, stored on the lower
// endpoint so both query directions share it. A query names the edge by
// (endpoint, slot), the friend's position in the endpoint's sorted list,
// and the graph's reverse-edge offsets (SocialGraph::mirror) find the lower
// endpoint's slot without a search.
//
// Rows are allocated lazily (first query touching a node). The graph is
// immutable, so a filled slot never goes stale and nothing invalidates it.
// The index is NOT thread-safe: queries mutate the cache. Use one instance
// per thread or guard externally.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/social_graph.hpp"

namespace sel::graph {

class TieStrengthIndex {
 public:
  /// Deterministic query accounting (independent of SEL_OBS): a query is a
  /// hit, or a miss (cold slot, merge + fill). `merges()` counts the
  /// adjacency-list merges executed — the work the cache exists to avoid.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    [[nodiscard]] std::uint64_t queries() const noexcept {
      return hits + misses;
    }
    [[nodiscard]] std::uint64_t merges() const noexcept { return misses; }
  };

  /// The graph must outlive the index.
  explicit TieStrengthIndex(const SocialGraph& g);

  /// |N(u) ∩ N(v)| for u's friend v = neighbors(u)[slot], memoized.
  [[nodiscard]] std::size_t common_neighbors(NodeId u, std::size_t slot);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Marks a slot that has not been filled yet; a real count is below
  /// num_nodes(), which NodeId keeps under 2^32 - 1.
  static constexpr std::uint32_t kUnset = 0xFFFF'FFFFu;

  const SocialGraph* g_;
  /// rows_[a][i] memoizes common_neighbors(a, N(a)[i]). A row stays empty
  /// until its node is first queried, then holds degree(a) slots.
  std::vector<std::vector<std::uint32_t>> rows_;
  Stats stats_;
};

}  // namespace sel::graph
