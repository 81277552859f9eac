#include "graph/social_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/generators.hpp"
#include "graph/profiles.hpp"
#include "graph/snap_loader.hpp"

namespace sel::graph {
namespace {

SocialGraph triangle_plus_tail() {
  // 0-1, 1-2, 0-2 (triangle), 2-3 (tail)
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(2, 3);
  return b.build();
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const SocialGraph g = b.build();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, NodesWithoutEdges) {
  GraphBuilder b(5);
  const SocialGraph g = b.build();
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(g.degree(u), 0u);
}

TEST(GraphBuilder, DeduplicatesEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge
  b.add_edge(0, 1);  // duplicate
  const SocialGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const SocialGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(SocialGraph, DegreesAndNeighbors) {
  const SocialGraph g = triangle_plus_tail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
}

TEST(SocialGraph, NeighborsAreSorted) {
  const SocialGraph g = triangle_plus_tail();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(SocialGraph, HasEdgeSymmetric) {
  const SocialGraph g = triangle_plus_tail();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(3, 0));
}

TEST(SocialGraph, CommonNeighbors) {
  const SocialGraph g = triangle_plus_tail();
  // N(0) = {1,2}, N(1) = {0,2} -> common {2}
  EXPECT_EQ(g.common_neighbors(0, 1), 1u);
  // N(0) = {1,2}, N(3) = {2} -> common {2}
  EXPECT_EQ(g.common_neighbors(0, 3), 1u);
  // N(1) = {0,2}, N(2) = {0,1,3} -> common {0}
  EXPECT_EQ(g.common_neighbors(1, 2), 1u);
}

TEST(SocialGraph, SocialStrengthNormalizedByOwnDegree) {
  const SocialGraph g = triangle_plus_tail();
  // s(0,1) = |{2}| / deg(0)=2 = 0.5
  EXPECT_DOUBLE_EQ(g.social_strength(0, 1), 0.5);
  // s(1,0) = |{2}| / deg(1)=2 = 0.5
  EXPECT_DOUBLE_EQ(g.social_strength(1, 0), 0.5);
  // s(3,0) = |{2}| / deg(3)=1 = 1.0 — asymmetry
  EXPECT_DOUBLE_EQ(g.social_strength(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(g.social_strength(0, 3), 0.5);
}

TEST(SocialGraph, SocialStrengthOfIsolatedNodeIsZero) {
  GraphBuilder b(3);
  b.add_edge(1, 2);
  const SocialGraph g = b.build();
  EXPECT_DOUBLE_EQ(g.social_strength(0, 1), 0.0);
}

TEST(SocialGraph, AverageDegree) {
  const SocialGraph g = triangle_plus_tail();
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 4);
}

TEST(SocialGraph, MaxDegree) {
  const SocialGraph g = triangle_plus_tail();
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(SocialGraph, EmptyGraphAverageDegreeZero) {
  const SocialGraph g = GraphBuilder(0).build();
  EXPECT_DOUBLE_EQ(g.average_degree(), 0.0);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphBuilder, LargeStarGraph) {
  const std::size_t n = 1001;
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) b.add_edge(0, u);
  const SocialGraph g = b.build();
  EXPECT_EQ(g.degree(0), n - 1);
  EXPECT_EQ(g.num_edges(), n - 1);
  for (NodeId u = 1; u < n; ++u) {
    EXPECT_EQ(g.degree(u), 1u);
    EXPECT_TRUE(g.has_edge(u, 0));
  }
}

/// Every adjacency entry (u, i) must point back: u sits at position
/// mirror(u, i) of its i-th friend's list.
void expect_mirror_points_back(const SocialGraph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const auto back = g.neighbors(nbrs[i]);
      const std::size_t at = g.mirror(u, i);
      ASSERT_LT(at, back.size()) << "u=" << u << " i=" << i;
      ASSERT_EQ(back[at], u) << "u=" << u << " i=" << i;
    }
  }
}

TEST(SocialGraph, MirrorPointsBackOnGeneratedProfiles) {
  for (const char* profile : {"facebook", "gplus", "twitter"}) {
    SCOPED_TRACE(profile);
    expect_mirror_points_back(
        make_dataset_graph(profile_by_name(profile), 300, 7));
  }
}

TEST(SocialGraph, MirrorPointsBackOnSnapEdgeList) {
  // Comments, duplicates, reversed duplicates and a self-loop, as real
  // dumps have; GraphBuilder drops the last three before the mirror pass.
  const std::string text =
      "# SNAP-style fixture\n"
      "0\t1\n0\t2\n0\t3\n1\t2\n2\t3\n3\t4\n4\t5\n"
      "1\t0\n2\t0\n3\t3\n"
      "5\t6\n4\t6\n0\t4\n";
  const auto loaded = parse_snap_edge_list(text);
  ASSERT_TRUE(loaded.has_value());
  expect_mirror_points_back(loaded->graph);
}

TEST(SocialGraph, MirrorOnTriangleWithTail) {
  const SocialGraph g = triangle_plus_tail();
  // N(2) = {0, 1, 3}; 2 sits at position 1 of N(0) = {1, 2}, position 1 of
  // N(1) = {0, 2} and position 0 of N(3) = {2}.
  EXPECT_EQ(g.mirror(2, 0), 1u);
  EXPECT_EQ(g.mirror(2, 1), 1u);
  EXPECT_EQ(g.mirror(2, 2), 0u);
}

}  // namespace
}  // namespace sel::graph
