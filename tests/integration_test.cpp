// End-to-end integration: every system builds on every dataset profile and
// the paper's headline orderings hold at test scale.
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "graph/profiles.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

namespace sel {
namespace {

using overlay::PeerId;

std::vector<PeerId> sample_publishers(std::size_t n, std::size_t count) {
  std::vector<PeerId> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<PeerId>(i * 37 % n));
  }
  return out;
}

TEST(Integration, AllSystemsBuildAndRouteOnFacebookProfile) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 500, 42);
  for (const auto& name : baselines::overlay_names(/*paper_only=*/true)) {
    auto ov = baselines::make_overlay(name, g, {.seed = 42});
    ov->build();
    const auto hops = pubsub::measure_hops(*ov, 150, 42);
    EXPECT_GT(hops.success_rate(), 0.97) << name;
    const auto relays = pubsub::measure_relays(overlay::PubSubSystem(*ov),
                                               sample_publishers(500, 10));
    EXPECT_GT(relays.coverage.mean(), 0.9) << name;
  }
}

TEST(Integration, SelectBeatsSymphonyOnHops) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 600, 7);
  auto select = baselines::make_overlay("select", g, {.seed = 7});
  auto symphony = baselines::make_overlay("symphony", g, {.seed = 7});
  select->build();
  symphony->build();
  const double select_hops = pubsub::measure_hops(*select, 300, 7).hops.mean();
  const double symphony_hops =
      pubsub::measure_hops(*symphony, 300, 7).hops.mean();
  EXPECT_LT(select_hops, symphony_hops);
}

TEST(Integration, SelectHasFewestRelaysAmongRingSystems) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 600, 9);
  const auto publishers = sample_publishers(600, 15);
  auto select = baselines::make_overlay("select", g, {.seed = 9});
  select->build();
  const double select_relays =
      pubsub::measure_relays(overlay::PubSubSystem(*select), publishers)
          .relays_per_path.mean();
  for (const auto name : {"symphony", "bayeux", "vitis"}) {
    auto ov = baselines::make_overlay(name, g, {.seed = 9});
    ov->build();
    const double relays =
        pubsub::measure_relays(overlay::PubSubSystem(*ov), publishers)
            .relays_per_path.mean();
    EXPECT_LT(select_relays, relays) << name;
  }
}

TEST(Integration, SelectRelayTrafficIsMinimal) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("slashdot"), 500, 11);
  const auto publishers = sample_publishers(500, 15);
  auto select = baselines::make_overlay("select", g, {.seed = 11});
  select->build();
  const auto load =
      pubsub::measure_load(overlay::PubSubSystem(*select), publishers);
  // Slashdot is the sparsest profile (avg degree ~12), so the subscriber
  // mesh covers least and a bit more relay traffic remains.
  EXPECT_LT(load.relay_forward_share, 0.20);
  auto bayeux = baselines::make_overlay("bayeux", g, {.seed = 11});
  bayeux->build();
  const auto bayeux_load =
      pubsub::measure_load(overlay::PubSubSystem(*bayeux), publishers);
  EXPECT_GT(bayeux_load.relay_forward_share, load.relay_forward_share);
}

TEST(Integration, SelectDisseminationLatencyBeatsRandomOverlay) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 400, 13);
  net::NetworkModel net(g.num_nodes(), 13);
  const auto publishers = sample_publishers(400, 10);
  auto select = baselines::make_overlay("select", g, {.seed = 13, .net = &net});
  select->build();
  auto random = baselines::make_overlay("random", g, {.seed = 13});
  random->build();
  const auto select_lat =
      pubsub::measure_latency(overlay::PubSubSystem(*select), net, publishers);
  const auto random_lat =
      pubsub::measure_latency(overlay::PubSubSystem(*random), net, publishers);
  EXPECT_LT(select_lat.per_tree_s.mean(), random_lat.per_tree_s.mean());
}

TEST(Integration, EverySystemWorksOnEveryProfileSmall) {
  for (const auto& profile : graph::all_profiles()) {
    const auto g = graph::make_dataset_graph(profile, 250, 17);
    for (const auto& name : baselines::overlay_names(/*paper_only=*/true)) {
      auto ov = baselines::make_overlay(name, g, {.seed = 17});
      ov->build();
      const auto hops = pubsub::measure_hops(*ov, 60, 17);
      EXPECT_GT(hops.success_rate(), 0.9)
          << profile.name << "/" << name;
    }
  }
}

TEST(Integration, FactoryRejectsUnknownName) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 64, 1);
  EXPECT_DEATH((void)baselines::make_overlay("nope", g, {.seed = 1}),
               "Invariant");
}

}  // namespace
}  // namespace sel
