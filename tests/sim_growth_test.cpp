#include "sim/growth.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"

namespace sel::sim {
namespace {

TEST(Growth, EveryNodeJoinsExactlyOnce) {
  const auto g = graph::holme_kim(300, 3, 0.5, 1);
  const auto schedule = growth_schedule(g, GrowthParams{}, 2);
  EXPECT_EQ(schedule.size(), 300u);
  std::set<graph::NodeId> seen;
  for (const auto& e : schedule) seen.insert(e.user);
  EXPECT_EQ(seen.size(), 300u);
}

TEST(Growth, InviterJoinedEarlierAndIsFriend) {
  const auto g = graph::holme_kim(400, 3, 0.5, 3);
  const auto schedule = growth_schedule(g, GrowthParams{}, 4);
  std::set<graph::NodeId> joined;
  for (const auto& e : schedule) {
    if (e.inviter != graph::kInvalidNode) {
      EXPECT_TRUE(joined.contains(e.inviter))
          << "inviter must have joined first";
      EXPECT_TRUE(g.has_edge(e.user, e.inviter))
          << "inviter must be a social friend";
    }
    joined.insert(e.user);
  }
}

TEST(Growth, FirstJoinHasNoInviter) {
  const auto g = graph::holme_kim(100, 2, 0.3, 5);
  const auto schedule = growth_schedule(g, GrowthParams{}, 6);
  EXPECT_EQ(schedule.front().inviter, graph::kInvalidNode);
  EXPECT_EQ(schedule.front().step, 0u);
}

TEST(Growth, StepsAreMonotone) {
  const auto g = graph::holme_kim(300, 3, 0.5, 7);
  const auto schedule = growth_schedule(g, GrowthParams{}, 8);
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(schedule[i - 1].step, schedule[i].step);
  }
}

TEST(Growth, DecayStretchesSchedule) {
  const auto g = graph::holme_kim(500, 3, 0.5, 9);
  GrowthParams fast{.initial_rate = 64.0, .decay = 0.0};
  GrowthParams slow{.initial_rate = 64.0, .decay = 0.2};
  // Schedules are sorted by step, so the last event carries the last step.
  const auto last_fast = growth_schedule(g, fast, 10).back().step;
  const auto last_slow = growth_schedule(g, slow, 10).back().step;
  // Decay shrinks per-step batches toward 1/step, so more steps are needed.
  EXPECT_GT(last_slow, last_fast);
}

TEST(Growth, Deterministic) {
  const auto g = graph::holme_kim(200, 3, 0.5, 11);
  const auto a = growth_schedule(g, GrowthParams{}, 12);
  const auto b = growth_schedule(g, GrowthParams{}, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].inviter, b[i].inviter);
    EXPECT_EQ(a[i].step, b[i].step);
  }
}

TEST(Growth, DisconnectedComponentsGetIndependentSeeds) {
  // Two disjoint triangles: at least two independent (no-inviter) joins.
  graph::GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  b.add_edge(3, 5);
  const auto schedule = growth_schedule(b.build(), GrowthParams{}, 13);
  std::size_t independent = 0;
  for (const auto& e : schedule) {
    if (e.inviter == graph::kInvalidNode) ++independent;
  }
  EXPECT_GE(independent, 2u);
}

TEST(Growth, IsolatedNodesJoinIndependently) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1);
  // 2 and 3 isolated.
  const auto schedule = growth_schedule(b.build(), GrowthParams{}, 14);
  EXPECT_EQ(schedule.size(), 4u);
  for (const auto& e : schedule) {
    if (e.user == 2 || e.user == 3) {
      EXPECT_EQ(e.inviter, graph::kInvalidNode);
    }
  }
}

TEST(Growth, EmptyGraph) {
  const auto schedule =
      growth_schedule(graph::GraphBuilder(0).build(), GrowthParams{}, 15);
  EXPECT_TRUE(schedule.empty());
}

}  // namespace
}  // namespace sel::sim
