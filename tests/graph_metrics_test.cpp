#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace sel::graph {
namespace {

SocialGraph clique(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

TEST(Clustering, CliqueIsOne) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(clique(6), 100, 1), 1.0);
}

TEST(Clustering, TreeIsZero) {
  GraphBuilder b(7);
  for (NodeId u = 1; u < 7; ++u) b.add_edge(u / 2, u);  // binary tree
  EXPECT_DOUBLE_EQ(clustering_coefficient(b.build(), 100, 1), 0.0);
}

TEST(Clustering, SampledEstimateNearExact) {
  const SocialGraph g = holme_kim(800, 4, 0.7, 7);
  const double exact = clustering_coefficient(g, g.num_nodes(), 1);
  const double sampled = clustering_coefficient(g, 400, 99);
  EXPECT_NEAR(sampled, exact, 0.08);
}

TEST(ConnectedComponents, CountsDisjointPieces) {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  // 5, 6 isolated
  const SocialGraph g = b.build();
  EXPECT_EQ(connected_components(g), 4u);
}

TEST(ConnectedComponents, EmptyGraph) {
  const SocialGraph g = GraphBuilder(0).build();
  EXPECT_EQ(connected_components(g), 0u);
}

TEST(ConnectedComponents, SingleComponent) {
  EXPECT_EQ(connected_components(clique(10)), 1u);
}

TEST(PowerlawAlpha, ReturnsZeroWithTooFewNodes) {
  EXPECT_DOUBLE_EQ(powerlaw_alpha(clique(5), 100), 0.0);
}

TEST(PowerlawAlpha, BaGraphInExpectedRange) {
  const SocialGraph g = holme_kim(5000, 4, 0.0, 9);
  const double alpha = powerlaw_alpha(g, 5);
  // BA graphs have alpha ~ 3.
  EXPECT_GT(alpha, 2.0);
  EXPECT_LT(alpha, 4.0);
}

}  // namespace
}  // namespace sel::graph
