#include <gtest/gtest.h>

#include "overlay/overlay.hpp"

namespace sel::overlay {
namespace {

RingSubstrate ring_of(std::size_t n) {
  RingSubstrate ov(n);
  for (PeerId p = 0; p < n; ++p) {
    ov.join(p, net::OverlayId(static_cast<double>(p) / static_cast<double>(n)));
  }
  ov.rebuild_ring();
  return ov;
}

TEST(GreedyRoute, SelfRouteIsZeroHops) {
  RingSubstrate ov = ring_of(8);
  const auto r = ov.greedy_route(3, 3);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 0u);
  EXPECT_EQ(r.path, std::vector<PeerId>{3});
}

TEST(GreedyRoute, AdjacentPeerIsOneHop) {
  RingSubstrate ov = ring_of(8);
  const auto r = ov.greedy_route(3, 4);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 1u);
}

TEST(GreedyRoute, RingWalkReachesAnyPeer) {
  RingSubstrate ov = ring_of(16);
  for (PeerId dst = 0; dst < 16; ++dst) {
    const auto r = ov.greedy_route(0, dst);
    EXPECT_TRUE(r.success) << "dst=" << dst;
    EXPECT_EQ(r.path.front(), 0u);
    EXPECT_EQ(r.path.back(), dst);
  }
}

TEST(GreedyRoute, TakesShorterArcDirection) {
  RingSubstrate ov = ring_of(16);
  // 0 -> 15 is one hop counterclockwise (pred), not 15 hops clockwise.
  const auto r = ov.greedy_route(0, 15);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 1u);
}

TEST(GreedyRoute, LongLinksShortenPaths) {
  RingSubstrate plain = ring_of(64);
  const auto slow = plain.greedy_route(0, 32);
  RingSubstrate fast = ring_of(64);
  fast.add_long_link(0, 30);
  const auto quick = fast.greedy_route(0, 32);
  EXPECT_TRUE(slow.success);
  EXPECT_TRUE(quick.success);
  EXPECT_LT(quick.hops(), slow.hops());
}

TEST(GreedyRoute, LookaheadFindsTwoHopShortcut) {
  RingSubstrate ov = ring_of(64);
  // The shortcut holder (63) lies AWAY from the greedy direction toward 32,
  // so only lookahead discovers it.
  ov.add_long_link(63, 32);
  RouteOptions with;
  with.lookahead = true;
  const auto r = ov.greedy_route(0, 32, with);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 2u);
  EXPECT_EQ(r.path[1], 63u);
}

TEST(GreedyRoute, NoLookaheadIsSlower) {
  RingSubstrate ov = ring_of(64);
  ov.add_long_link(63, 32);
  RouteOptions without;
  without.lookahead = false;
  const auto r = ov.greedy_route(0, 32, without);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.hops(), 4u);  // greedy walks the ring instead
}

TEST(GreedyRoute, SkipsOfflinePeers) {
  RingSubstrate ov = ring_of(8);
  ov.add_long_link(0, 4);
  ov.set_online(4, false);
  // Target 4 offline: route fails (destination unusable), before any hop.
  const auto r = ov.greedy_route(0, 4);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.status, RouteStatus::kNoRoute);
  EXPECT_EQ(r.path, std::vector<PeerId>{0});
}

TEST(GreedyRoute, RoutesAroundOfflineRelay) {
  RingSubstrate ov = ring_of(8);
  ov.set_online(1, false);
  ov.set_online(7, false);
  // Both ring directions from 0 are blocked at the first hop... except
  // detours through 2..6 do not exist from 0 (only succ/pred). The route
  // must fail cleanly rather than loop.
  const auto blocked = ov.greedy_route(0, 4);
  EXPECT_FALSE(blocked.success);
  // A long link restores connectivity.
  ov.add_long_link(0, 3);
  const auto r = ov.greedy_route(0, 4);
  EXPECT_TRUE(r.success);
}

TEST(GreedyRoute, OfflineRouteIgnoredWhenNotRequired) {
  RingSubstrate ov = ring_of(8);
  ov.set_online(1, false);
  RouteOptions opts;
  opts.require_online = false;
  const auto r = ov.greedy_route(0, 2, opts);
  EXPECT_TRUE(r.success);
}

TEST(GreedyRoute, TtlBoundsPathLength) {
  RingSubstrate ov = ring_of(128);
  RouteOptions opts;
  opts.max_hops = 3;
  const auto r = ov.greedy_route(0, 64, opts);
  EXPECT_FALSE(r.success);
  EXPECT_LE(r.path.size(), 4u);
}

TEST(GreedyRoute, UnjoinedEndpointsFail) {
  RingSubstrate ov(4);
  ov.join(0, net::OverlayId(0.0));
  ov.rebuild_ring();
  EXPECT_FALSE(ov.greedy_route(0, 2).success);
  EXPECT_FALSE(ov.greedy_route(2, 0).success);
}

TEST(GreedyRoute, ClusteredIdsStillRoute) {
  // All peers share nearly identical ids (SELECT's clustered communities);
  // the clockwise tiebreak must still find the target.
  RingSubstrate ov(10);
  for (PeerId p = 0; p < 10; ++p) {
    ov.join(p, net::OverlayId(0.5 + 1e-9 * static_cast<double>(p)));
  }
  ov.rebuild_ring();
  for (PeerId dst = 0; dst < 10; ++dst) {
    EXPECT_TRUE(ov.greedy_route(0, dst).success) << "dst=" << dst;
  }
}

TEST(GreedyRoute, PathHasNoDuplicates) {
  RingSubstrate ov = ring_of(64);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto a = static_cast<PeerId>(rng.below(64));
    const auto b = static_cast<PeerId>(rng.below(64));
    const auto r = ov.greedy_route(a, b);
    ASSERT_TRUE(r.success);
    auto sorted = r.path;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(GreedyRoute, ConsecutivePathNodesAreNeighbors) {
  RingSubstrate ov = ring_of(32);
  ov.add_long_link(0, 11);
  ov.add_long_link(11, 22);
  const auto r = ov.greedy_route(0, 22);
  ASSERT_TRUE(r.success);
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    EXPECT_TRUE(ov.neighbors_of_contains(r.path[i - 1], r.path[i]));
  }
}

}  // namespace
}  // namespace sel::overlay
