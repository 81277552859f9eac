#include "graph/tie_strength.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/profiles.hpp"
#include "graph/snap_loader.hpp"

namespace sel::graph {
namespace {

/// Every edge, queried as (u, slot) from both endpoints, must agree with
/// the naive CSR merge, with the cache cold and warm; both directions of an
/// edge share one slot, so each edge merges exactly once.
void expect_full_equivalence(const SocialGraph& g) {
  TieStrengthIndex tie(g);
  for (int pass = 0; pass < 2; ++pass) {  // pass 1 answers from warm slots
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto nbrs = g.neighbors(u);
      for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
        ASSERT_EQ(tie.common_neighbors(u, slot),
                  g.common_neighbors(u, nbrs[slot]))
            << "pass=" << pass << " u=" << u << " slot=" << slot;
      }
    }
  }
  EXPECT_EQ(tie.stats().merges(), g.num_edges());
  EXPECT_EQ(tie.stats().queries(), 4 * g.num_edges());
}

TEST(TieStrengthIndex, MatchesNaiveOnGeneratedGraph) {
  expect_full_equivalence(
      make_dataset_graph(profile_by_name("facebook"), 120, 7));
}

TEST(TieStrengthIndex, MatchesNaiveOnHolmeKim) {
  expect_full_equivalence(holme_kim(80, 3, 0.4, 11));
}

TEST(TieStrengthIndex, MatchesNaiveOnSnapEdgeList) {
  // A small SNAP-style fixture: a triangle fan plus a pendant chain, with
  // comments, duplicate edges and reversed duplicates like real dumps have.
  const std::string text =
      "# SNAP-style fixture\n"
      "0\t1\n0\t2\n0\t3\n1\t2\n2\t3\n3\t4\n4\t5\n"
      "1\t0\n"  // reversed duplicate
      "2\t0\n"
      "5\t6\n4\t6\n0\t4\n";
  const auto loaded = parse_snap_edge_list(text);
  ASSERT_TRUE(loaded.has_value());
  expect_full_equivalence(loaded->graph);
}

TEST(TieStrengthIndex, EdgePairsHitOnRepeat) {
  const auto g = holme_kim(60, 3, 0.3, 5);
  TieStrengthIndex tie(g);
  const NodeId u = 0;
  const NodeId friend_v = g.neighbors(u)[0];

  (void)tie.common_neighbors(u, 0);
  EXPECT_EQ(tie.stats().misses, 1u);
  (void)tie.common_neighbors(u, 0);
  (void)tie.common_neighbors(friend_v, g.mirror(u, 0));  // symmetric: same slot
  EXPECT_EQ(tie.stats().hits, 2u);
  EXPECT_EQ(tie.stats().merges(), 1u);
  EXPECT_EQ(tie.stats().queries(), 3u);
}

}  // namespace
}  // namespace sel::graph
