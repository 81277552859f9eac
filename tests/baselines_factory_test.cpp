#include "baselines/factory.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/symphony.hpp"
#include "graph/profiles.hpp"
#include "select/protocol.hpp"

namespace sel::baselines {
namespace {

graph::SocialGraph small_graph(std::uint64_t seed) {
  return graph::make_dataset_graph(graph::profile_by_name("facebook"), 200,
                                   seed);
}

TEST(Factory, ListsThePaperComparisonOrder) {
  const auto names = overlay_names(/*paper_only=*/true);
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "select");
  EXPECT_EQ(names[1], "symphony");
  EXPECT_EQ(names[2], "bayeux");
  EXPECT_EQ(names[3], "vitis");
  EXPECT_EQ(names[4], "omen");
  // The full table extends the paper set, which stays in front.
  const auto all = overlay_names();
  ASSERT_GT(all.size(), names.size());
  EXPECT_TRUE(std::equal(names.begin(), names.end(), all.begin()));
}

TEST(Factory, EveryListedNameConstructs) {
  const auto g = small_graph(1);
  for (const auto& name : overlay_names()) {
    auto ov = make_overlay(name, g, {.seed = 1});
    ASSERT_NE(ov, nullptr);
    EXPECT_EQ(ov->name(), name);
    EXPECT_EQ(&ov->social(), &g);
  }
}

TEST(Factory, RandomControlConstructs) {
  const auto g = small_graph(2);
  auto ov = make_overlay("random", g, {.seed = 2});
  ASSERT_NE(ov, nullptr);
  EXPECT_EQ(ov->name(), "random");
}

TEST(Factory, KOverridePropagates) {
  const auto g = small_graph(3);
  auto ov = make_overlay("symphony", g, {.seed = 3, .k_links = 4});
  ov->build();
  const auto* symphony = dynamic_cast<const SymphonySystem*>(ov.get());
  ASSERT_NE(symphony, nullptr);
  for (overlay::PeerId p = 0; p < g.num_nodes(); ++p) {
    EXPECT_LE(symphony->overlay().out_degree(p), 4u);
  }
}

TEST(Factory, SelectUsesProvidedNetworkModel) {
  const auto g = small_graph(4);
  net::NetworkModel net(g.num_nodes(), 99);
  auto ov = make_overlay("select", g, {.seed = 4, .net = &net});
  ov->build();  // must not crash; bandwidth decisions read `net`
  EXPECT_EQ(ov->name(), "select");
}

TEST(Factory, SeparateInstancesAreIndependent) {
  const auto g = small_graph(5);
  auto a = make_overlay("select", g, {.seed = 5});
  auto b = make_overlay("select", g, {.seed = 5});
  a->build();
  b->build();
  a->set_peer_online(0, false);
  EXPECT_FALSE(a->peer_online(0));
  EXPECT_TRUE(b->peer_online(0));
}

}  // namespace
}  // namespace sel::baselines
