// Parameter-space sweep: SELECT's invariants and headline behaviour must
// hold across its whole tunable range, not just the defaults.
#include <gtest/gtest.h>

#include <tuple>

#include "graph/profiles.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

namespace sel::core {
namespace {

using overlay::PeerId;

// (k_links, id_damping, lsh_bits, exchanges_per_round)
using ParamTuple = std::tuple<std::size_t, double, std::size_t, std::size_t>;

class SelectParamSweep : public ::testing::TestWithParam<ParamTuple> {
 protected:
  SelectParams make_params() const {
    const auto& [k, damping, bits, exchanges] = GetParam();
    SelectParams p;
    p.k_links = k;
    p.id_damping = damping;
    p.lsh_bits_per_hash = bits;
    p.exchanges_per_round = exchanges;
    return p;
  }
};

TEST_P(SelectParamSweep, BuildsRoutesAndRespectsBudgets) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 300, 77);
  SelectSystem sys(g, make_params(), 77);
  sys.build();
  const std::size_t k = sys.k();
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    ASSERT_LE(sys.overlay().out_degree(p), k);
    ASSERT_LE(sys.overlay().in_degree(p), k);
  }
  const auto hops = pubsub::measure_hops(sys, 150, 77);
  EXPECT_GT(hops.success_rate(), 0.98);
  EXPECT_LT(hops.hops.mean(), 5.0);
}

TEST_P(SelectParamSweep, DeterministicAcrossRuns) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("slashdot"), 250, 78);
  SelectSystem a(g, make_params(), 78);
  SelectSystem b(g, make_params(), 78);
  a.build();
  b.build();
  EXPECT_EQ(a.build_iterations(), b.build_iterations());
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    ASSERT_DOUBLE_EQ(a.overlay().id(p).value(), b.overlay().id(p).value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamSpace, SelectParamSweep,
    ::testing::Values(ParamTuple{0, 0.8, 12, 3},   // defaults
                      ParamTuple{4, 0.8, 12, 3},   // small link budget
                      ParamTuple{16, 0.8, 12, 3},  // large link budget
                      ParamTuple{0, 1.0, 12, 3},   // Alg. 2 literal (no damping)
                      ParamTuple{0, 0.3, 12, 3},   // heavy damping
                      ParamTuple{0, 0.8, 4, 3},    // coarse LSH hashes
                      ParamTuple{0, 0.8, 24, 3},   // fine LSH hashes
                      ParamTuple{0, 0.8, 12, 1},   // one gossip/round
                      ParamTuple{0, 0.8, 12, 6})); // aggressive gossip

TEST(SelectSmallWorlds, TinyNetworksWork) {
  // Degenerate sizes: the protocol must not fall over on toy networks.
  for (const std::size_t n : {3u, 8u, 17u, 33u}) {
    const auto g = graph::make_dataset_graph(
        graph::profile_by_name("slashdot"), n, 79);
    SelectSystem sys(g, SelectParams{}, 79);
    sys.build();
    const auto hops = pubsub::measure_hops(sys, 50, 79);
    EXPECT_GT(hops.success_rate(), 0.9) << "n=" << n;
  }
}

TEST(SelectSmallWorlds, SingleAndTwoPeerNetworks) {
  {
    graph::GraphBuilder b(1);
    const auto g = b.build();
    SelectSystem sys(g, SelectParams{}, 80);
    sys.build();  // must not crash or hang
    EXPECT_TRUE(sys.overlay().joined(0));
  }
  {
    graph::GraphBuilder b(2);
    b.add_edge(0, 1);
    const auto g = b.build();
    SelectSystem sys(g, SelectParams{}, 81);
    sys.build();
    const auto r = sys.route(0, 1);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.hops(), 1u);
  }
}

TEST(SelectSmallWorlds, DisconnectedGraphStillServesComponents) {
  // Two disjoint communities: each publisher reaches its own component.
  graph::GraphBuilder b(12);
  for (graph::NodeId u = 0; u < 6; ++u) {
    for (graph::NodeId v = u + 1; v < 6; ++v) b.add_edge(u, v);
  }
  for (graph::NodeId u = 6; u < 12; ++u) {
    for (graph::NodeId v = u + 1; v < 12; ++v) b.add_edge(u, v);
  }
  const auto g = b.build();
  SelectSystem sys(g, SelectParams{}, 82);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  const auto tree = ps.build_tree(0);
  const auto subs = ps.subscribers_of(0);
  for (const PeerId s : subs) {
    EXPECT_TRUE(tree.contains(s)) << s;
  }
}

}  // namespace
}  // namespace sel::core
