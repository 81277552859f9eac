#include "graph/tie_strength.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "graph/profiles.hpp"
#include "graph/snap_loader.hpp"

namespace sel::graph {
namespace {

/// Every (u, v) pair — edges, non-edges, u == v — must agree with the naive
/// CSR merge, with the cache cold and warm.
void expect_full_equivalence(const SocialGraph& g) {
  TieStrengthIndex tie(g);
  for (int pass = 0; pass < 2; ++pass) {  // pass 1 answers from warm slots
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(tie.common_neighbors(u, v), g.common_neighbors(u, v))
            << "pass=" << pass << " u=" << u << " v=" << v;
      }
    }
  }
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

TEST(TieStrengthIndex, SelfPairIsDegreeWithoutMerge) {
  const auto g = holme_kim(30, 2, 0.2, 3);
  TieStrengthIndex tie(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(tie.common_neighbors(u, u), g.degree(u));
  }
  EXPECT_EQ(tie.stats().misses, 0u);
  EXPECT_EQ(tie.stats().uncacheable, g.num_nodes());
}

TEST(TieStrengthIndex, EdgePairsHitOnRepeatNonEdgesDoNot) {
  const auto g = holme_kim(60, 3, 0.3, 5);
  TieStrengthIndex tie(g);
  const NodeId u = 0;
  const NodeId friend_v = g.neighbors(u)[0];
  NodeId stranger = kInvalidNode;
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    if (w != u && !g.has_edge(u, w)) {
      stranger = w;
      break;
    }
  }
  ASSERT_NE(stranger, kInvalidNode);

  (void)tie.common_neighbors(u, friend_v);
  EXPECT_EQ(tie.stats().misses, 1u);
  (void)tie.common_neighbors(u, friend_v);
  (void)tie.common_neighbors(friend_v, u);  // symmetric: same slot
  EXPECT_EQ(tie.stats().hits, 2u);
  EXPECT_EQ(tie.stats().merges(), 1u);

  (void)tie.common_neighbors(u, stranger);
  (void)tie.common_neighbors(u, stranger);
  EXPECT_EQ(tie.stats().uncacheable, 2u);  // non-edges merge every time
  EXPECT_EQ(tie.stats().merges(), 3u);
  EXPECT_EQ(tie.stats().queries(), 5u);
}

}  // namespace
}  // namespace sel::graph
