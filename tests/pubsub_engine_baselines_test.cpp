// The NotificationEngine is system-agnostic: it must run unchanged over
// every overlay's PubSubSystem view, and its relative results must mirror
// the static metrics (SELECT beats Bayeux on relay traffic, etc.).
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
#include "graph/profiles.hpp"
#include "pubsub/engine.hpp"

namespace sel::pubsub {
namespace {

using overlay::PeerId;

class EngineOverSystem : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineOverSystem, DeliversThroughAnySystem) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 250, 41);
  net::NetworkModel net(g.num_nodes(), 41);
  auto ov = baselines::make_overlay(GetParam(), g, {.seed = 41, .net = &net});
  ov->build();
  const overlay::PubSubSystem ps(*ov);
  NotificationEngine engine(ps, net);
  for (PeerId p = 0; p < 5; ++p) engine.publish(p, 0.0);
  engine.run_all();
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.messages_published, 5u);
  EXPECT_GT(stats.delivery_rate(), 0.95) << GetParam();
  EXPECT_GT(stats.delivery_latency_s.mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, EngineOverSystem,
                         ::testing::Values("select", "symphony", "bayeux",
                                           "vitis", "omen", "random"));

TEST(EngineComparison, SelectGeneratesLessRelayTrafficThanBayeux) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 300, 43);
  net::NetworkModel net(g.num_nodes(), 43);
  auto run = [&](const char* name) {
    auto ov = baselines::make_overlay(name, g, {.seed = 43, .net = &net});
    ov->build();
    const overlay::PubSubSystem ps(*ov);
    NotificationEngine engine(ps, net);
    for (PeerId p = 0; p < 10; ++p) engine.publish(p * 7, 0.0);
    engine.run_all();
    const auto& s = engine.stats();
    return static_cast<double>(s.relay_forwards) /
           static_cast<double>(std::max<std::size_t>(s.deliveries, 1));
  };
  EXPECT_LT(run("select"), run("bayeux"));
}

TEST(EngineComparison, SelectCompletesTreesFasterThanRandom) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 250, 47);
  net::NetworkModel net(g.num_nodes(), 47);
  auto completion = [&](const char* name) {
    auto ov = baselines::make_overlay(name, g, {.seed = 47, .net = &net});
    ov->build();
    const overlay::PubSubSystem ps(*ov);
    NotificationEngine engine(ps, net);
    RunningStats done;
    for (PeerId p = 0; p < 8; ++p) {
      const double start = engine.now_s();
      const auto id = engine.publish(p * 11, start);
      engine.run_all();
      const auto& rec = engine.record(id);
      if (rec.completed_at_s.has_value()) done.add(*rec.completed_at_s - start);
    }
    return done.mean();
  };
  EXPECT_LT(completion("select"), completion("random"));
}

}  // namespace
}  // namespace sel::pubsub
