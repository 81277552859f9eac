#include "baselines/symphony.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "overlay/system.hpp"
#include "pubsub/metrics.hpp"

namespace sel::baselines {
namespace {

using overlay::PeerId;

graph::SocialGraph test_graph(std::size_t n, std::uint64_t seed) {
  return graph::holme_kim(n, 4, 0.6, seed);
}

TEST(Symphony, BuildJoinsEveryoneWithUniformIds) {
  const auto g = test_graph(512, 1);
  SymphonySystem sys(g, SymphonyParams{}, 1);
  sys.build();
  // Uniform ids: mean near 0.5, spread over the ring.
  double sum = 0.0;
  for (PeerId p = 0; p < 512; ++p) {
    EXPECT_TRUE(sys.overlay().joined(p));
    sum += sys.overlay().id(p).value();
  }
  EXPECT_NEAR(sum / 512.0, 0.5, 0.05);
}

TEST(Symphony, EstablishesAboutLogNLinks) {
  const auto g = test_graph(512, 2);
  SymphonySystem sys(g, SymphonyParams{}, 2);
  sys.build();
  // k = log2(512) = 9; harmonic draws may collide, so allow slack.
  EXPECT_GT(sys.overlay().average_long_degree(), 6.0);
  for (PeerId p = 0; p < 512; ++p) {
    EXPECT_LE(sys.overlay().out_degree(p), 9u);
  }
}

TEST(Symphony, ExplicitLinkBudgetHonored) {
  const auto g = test_graph(256, 3);
  SymphonySystem sys(g, SymphonyParams{.k_links = 4}, 3);
  sys.build();
  for (PeerId p = 0; p < 256; ++p) {
    EXPECT_LE(sys.overlay().out_degree(p), 4u);
  }
}

TEST(Symphony, NonIterativeConstruction) {
  const auto g = test_graph(128, 4);
  SymphonySystem sys(g, SymphonyParams{}, 4);
  sys.build();
  EXPECT_EQ(sys.build_iterations(), 0u);
}

TEST(Symphony, AllLookupsSucceed) {
  const auto g = test_graph(512, 5);
  SymphonySystem sys(g, SymphonyParams{}, 5);
  sys.build();
  const auto hops = pubsub::measure_hops(sys, 300, 5);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
}

TEST(Symphony, HopsGrowWithNetworkSize) {
  // O(log n) routing: hops at 4096 peers should exceed hops at 128.
  const auto small_g = test_graph(128, 6);
  SymphonySystem small_sys(small_g, SymphonyParams{}, 6);
  small_sys.build();
  const auto big_g = test_graph(4096, 6);
  SymphonySystem big_sys(big_g, SymphonyParams{}, 6);
  big_sys.build();
  const double small_hops = pubsub::measure_hops(small_sys, 200, 6).hops.mean();
  const double big_hops = pubsub::measure_hops(big_sys, 200, 6).hops.mean();
  EXPECT_GT(big_hops, small_hops);
}

TEST(Symphony, Deterministic) {
  const auto g = test_graph(256, 7);
  SymphonySystem a(g, SymphonyParams{}, 7);
  SymphonySystem b(g, SymphonyParams{}, 7);
  a.build();
  b.build();
  for (PeerId p = 0; p < 256; ++p) {
    EXPECT_DOUBLE_EQ(a.overlay().id(p).value(), b.overlay().id(p).value());
    EXPECT_EQ(a.overlay().out_degree(p), b.overlay().out_degree(p));
  }
}

TEST(Symphony, TreesReachSubscribers) {
  const auto g = test_graph(512, 8);
  SymphonySystem sys(g, SymphonyParams{}, 8);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  const auto tree = ps.build_tree(0);
  const auto subs = ps.subscribers_of(0);
  std::size_t covered = 0;
  for (const PeerId s : subs) {
    if (tree.contains(s)) ++covered;
  }
  EXPECT_EQ(covered, subs.size());
}

TEST(Symphony, ChurnHooksWork) {
  const auto g = test_graph(128, 9);
  SymphonySystem sys(g, SymphonyParams{}, 9);
  sys.build();
  sys.set_peer_online(5, false);
  EXPECT_FALSE(sys.peer_online(5));
  sys.set_peer_online(5, true);
  EXPECT_TRUE(sys.peer_online(5));
}

}  // namespace
}  // namespace sel::baselines
