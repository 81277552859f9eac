#include "overlay/lookahead.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/profiles.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

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

TEST(LookaheadCache, StartsUnknown) {
  RingSubstrate ov = ring_of(8);
  LookaheadCache cache(ov);
  EXPECT_EQ(cache.num_snapshots(), 0u);
  EXPECT_FALSE(cache.has_snapshot(0));
  EXPECT_FALSE(cache.cached_contains(0, 1));  // no claim without knowledge
}

TEST(LookaheadCache, RefreshSnapshotsNeighbors) {
  RingSubstrate ov = ring_of(8);
  ov.add_long_link(0, 4);
  LookaheadCache cache(ov);
  cache.refresh(0);
  EXPECT_TRUE(cache.has_snapshot(0));
  EXPECT_TRUE(cache.cached_contains(0, 1));   // succ
  EXPECT_TRUE(cache.cached_contains(0, 7));   // pred
  EXPECT_TRUE(cache.cached_contains(0, 4));   // long link
  EXPECT_FALSE(cache.cached_contains(0, 3));
}

TEST(LookaheadCache, SnapshotsGoStale) {
  RingSubstrate ov = ring_of(8);
  ov.add_long_link(0, 4);
  LookaheadCache cache(ov);
  cache.refresh(0);
  EXPECT_EQ(cache.stale_entries(0), 0u);
  ov.remove_long_link(0, 4);
  ov.add_long_link(0, 5);
  // Snapshot still claims 4, misses 5.
  EXPECT_TRUE(cache.cached_contains(0, 4));
  EXPECT_FALSE(cache.cached_contains(0, 5));
  EXPECT_EQ(cache.stale_entries(0), 2u);
  cache.refresh(0);
  EXPECT_EQ(cache.stale_entries(0), 0u);
  EXPECT_TRUE(cache.cached_contains(0, 5));
}

std::vector<PeerId> sorted_neighbors(const RingSubstrate& ov, PeerId p) {
  auto live = ov.neighbor_list(p);
  std::sort(live.begin(), live.end());
  return live;
}

TEST(LookaheadCache, GatedRefreshMatchesSortedNeighborList) {
  RingSubstrate ov = ring_of(8);
  ov.add_long_link(0, 4);
  ov.add_long_link(6, 0);
  LookaheadCache cache(ov);
  auto expect_current = [&](PeerId p) {
    const auto snap = cache.snapshot(p);
    EXPECT_EQ(std::vector<PeerId>(snap.begin(), snap.end()),
              sorted_neighbors(ov, p));
  };
  cache.refresh(0);
  expect_current(0);
  cache.refresh(0);  // neighbour version unchanged: skipped, still exact
  expect_current(0);
  ov.add_long_link(0, 2);  // link change
  cache.refresh(0);
  expect_current(0);
  ov.set_id(0, net::OverlayId(0.55));  // ring change
  ov.rebuild_ring();
  cache.refresh(0);
  expect_current(0);
  ov.remove_long_link(6, 0);  // incoming side
  cache.refresh(0);
  expect_current(0);
}

TEST(LookaheadCache, StaleEntriesCountDivergenceWithoutRefresh) {
  RingSubstrate ov = ring_of(8);
  LookaheadCache cache(ov);
  cache.refresh(3);
  cache.refresh(3);
  EXPECT_EQ(cache.stale_entries(3), 0u);
  ov.add_long_link(5, 3);  // changed on the far end only
  EXPECT_EQ(cache.stale_entries(3), 1u);
  EXPECT_FALSE(cache.cached_contains(3, 5));
  ov.set_id(3, net::OverlayId(0.95));  // 3 moves between 7 and 0
  ov.rebuild_ring();
  EXPECT_EQ(cache.stale_entries(3), 5u);  // -2, -4 (old ring); +7, +0, +5
  cache.refresh(3);
  EXPECT_EQ(cache.stale_entries(3), 0u);
  EXPECT_TRUE(cache.cached_contains(3, 5));
}

TEST(LookaheadCache, RefreshAllCoversEveryPeer) {
  RingSubstrate ov = ring_of(16);
  LookaheadCache cache(ov);
  cache.refresh_all();
  EXPECT_EQ(cache.num_snapshots(), 16u);
}

TEST(LookaheadCache, CachedRoutingUsesSnapshot) {
  RingSubstrate ov = ring_of(64);
  ov.add_long_link(63, 32);
  LookaheadCache cache(ov);
  cache.refresh_all();
  RouteOptions opts;
  opts.lookahead_cache = &cache;
  const auto r = ov.greedy_route(0, 32, opts);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 2u);  // via 63, from the snapshot
}

TEST(LookaheadCache, StaleShortcutDegradesGracefully) {
  RingSubstrate ov = ring_of(64);
  ov.add_long_link(63, 32);
  LookaheadCache cache(ov);
  cache.refresh_all();
  ov.remove_long_link(63, 32);  // snapshot now stale
  RouteOptions opts;
  opts.lookahead_cache = &cache;
  const auto r = ov.greedy_route(0, 32, opts);
  // The stale claim sends the message to 63, which no longer has the link;
  // routing continues greedily and still succeeds, just longer.
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.hops(), 2u);
}

TEST(LookaheadCache, EmptyCacheFallsBackToGreedy) {
  RingSubstrate ov = ring_of(32);
  LookaheadCache cache(ov);  // never refreshed
  RouteOptions opts;
  opts.lookahead_cache = &cache;
  const auto r = ov.greedy_route(0, 16, opts);
  EXPECT_TRUE(r.success);  // plain ring walk
}

TEST(SelectLookahead, CachePopulatedByGossip) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 300, 3);
  core::SelectSystem sys(g, core::SelectParams{}, 3);
  sys.join_all();
  EXPECT_EQ(sys.lookahead().num_snapshots(), 0u);
  sys.run_round();
  EXPECT_GT(sys.lookahead().num_snapshots(), 250u);
}

TEST(SelectLookahead, RoutingStaysReliableWithCachedLookahead) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 400, 5);
  core::SelectSystem sys(g, core::SelectParams{}, 5);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  const auto hops = pubsub::measure_hops(ps, 300, 5);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
  EXPECT_LT(hops.hops.mean(), 3.0);
}

}  // namespace
}  // namespace sel::overlay
