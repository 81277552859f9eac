#include "baselines/vitis.hpp"

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

TEST(Vitis, IterativeConstructionConverges) {
  const auto g = test_graph(300, 1);
  VitisSystem sys(g, VitisParams{}, 1);
  sys.build();
  EXPECT_GT(sys.build_iterations(), 0u);
  EXPECT_LT(sys.build_iterations(), VitisParams{}.max_rounds);
}

TEST(Vitis, AllLookupsSucceed) {
  const auto g = test_graph(400, 2);
  VitisSystem sys(g, VitisParams{}, 2);
  sys.build();
  const auto hops = pubsub::measure_hops(sys, 300, 2);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
}

TEST(Vitis, ClusterLinksFavorSimilarPeers) {
  const auto g = test_graph(400, 3);
  VitisSystem sys(g, VitisParams{}, 3);
  sys.build();
  // Cluster links should have far more common neighbours than random pairs.
  double linked_sim = 0.0;
  std::size_t linked_count = 0;
  for (PeerId p = 0; p < 400; ++p) {
    for (const PeerId q : sys.overlay().out_links(p)) {
      linked_sim += static_cast<double>(g.common_neighbors(p, q));
      ++linked_count;
    }
  }
  linked_sim /= static_cast<double>(linked_count);
  Rng rng(3);
  double random_sim = 0.0;
  for (int i = 0; i < 1000; ++i) {
    random_sim += static_cast<double>(g.common_neighbors(
        static_cast<PeerId>(rng.below(400)),
        static_cast<PeerId>(rng.below(400))));
  }
  random_sim /= 1000.0;
  EXPECT_GT(linked_sim, random_sim * 2.0);
}

TEST(Vitis, HubInDegreeIsCappedButConcentrated) {
  const auto g = test_graph(500, 4);
  VitisSystem sys(g, VitisParams{}, 4);
  sys.build();
  const std::size_t k = 8;  // log2(500) ~ 8
  std::size_t max_in = 0;
  for (PeerId p = 0; p < 500; ++p) {
    max_in = std::max(max_in, sys.overlay().in_degree(p));
  }
  // Hubs hit the 2k cap (+ base harmonic in-links, which are unbounded but
  // few); concentration is the Vitis signature, the cap is capacity.
  EXPECT_GE(max_in, k);
  EXPECT_LE(max_in, 2 * k + 12);
}

TEST(Vitis, IterationsGrowWithNetworkSize) {
  const auto small_g = test_graph(200, 5);
  VitisSystem small_sys(small_g, VitisParams{}, 5);
  small_sys.build();
  const auto big_g = test_graph(1600, 5);
  VitisSystem big_sys(big_g, VitisParams{}, 5);
  big_sys.build();
  EXPECT_GT(big_sys.build_iterations(), small_sys.build_iterations());
}

TEST(Vitis, Deterministic) {
  const auto g = test_graph(200, 6);
  VitisSystem a(g, VitisParams{}, 6);
  VitisSystem b(g, VitisParams{}, 6);
  a.build();
  b.build();
  EXPECT_EQ(a.build_iterations(), b.build_iterations());
  for (PeerId p = 0; p < 200; ++p) {
    EXPECT_EQ(a.overlay().out_degree(p), b.overlay().out_degree(p));
  }
}

TEST(Vitis, TreesCoverSubscribers) {
  const auto g = test_graph(400, 7);
  VitisSystem sys(g, VitisParams{}, 7);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  std::vector<PeerId> publishers{0, 31, 99};
  const auto relays = pubsub::measure_relays(ps, publishers);
  EXPECT_GT(relays.coverage.mean(), 0.95);
}

}  // namespace
}  // namespace sel::baselines
