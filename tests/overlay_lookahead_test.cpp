#include "overlay/lookahead.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
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
  const auto hops = pubsub::measure_hops(sys, 300, 5);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
  EXPECT_LT(hops.hops.mean(), 3.0);
}

// -- reverse-index routing against the snapshot scans ---------------------
//
// greedy_route answers its lookahead questions from the cache's reverse
// index. This reference is the route as it was before the index: depth 1
// binary-searches each neighbour's snapshot for dst, depth 2 searches the
// snapshot of every usable entry of each neighbour's snapshot, and the
// visited set is a hash set. Neighbours come from a linear-dedup walk of
// succ, pred, out- and in-links, the visit order for_each_neighbor keeps.
std::vector<PeerId> deduped_neighbors(const RingSubstrate& ov, PeerId p) {
  std::vector<PeerId> seen;
  auto visit = [&seen](PeerId q) {
    if (q != kInvalidPeer &&
        std::find(seen.begin(), seen.end(), q) == seen.end()) {
      seen.push_back(q);
    }
  };
  visit(ov.successor(p));
  visit(ov.predecessor(p));
  for (const PeerId q : ov.out_links(p)) visit(q);
  for (const PeerId q : ov.in_links(p)) visit(q);
  return seen;
}

RouteResult snapshot_scan_route(const RingSubstrate& ov, PeerId src,
                                PeerId dst, const RouteOptions& opts) {
  RouteResult result;
  if (!ov.joined(src) || !ov.joined(dst)) return result;
  std::size_t max_hops = opts.max_hops;
  if (max_hops == 0) {
    const double n =
        std::max<double>(2.0, static_cast<double>(ov.joined_count()));
    max_hops = static_cast<std::size_t>(4.0 * std::log2(n)) + 32;
  }
  result.path.push_back(src);
  if (src == dst) {
    result.success = true;
    result.status = RouteStatus::kOk;
    return result;
  }
  if (opts.require_online && !ov.online(dst)) return result;
  const LookaheadCache& cache = *opts.lookahead_cache;
  std::unordered_set<PeerId> visited{src};
  PeerId current = src;
  const net::OverlayId target = ov.id(dst);
  auto usable = [&](PeerId q) {
    if (q == kInvalidPeer || !ov.joined(q)) return false;
    if (opts.require_online && !ov.online(q)) return false;
    return opts.avoid == nullptr || q == dst || !opts.avoid->contains(q);
  };
  while (result.path.size() <= max_hops) {
    if (ov.neighbors_of_contains(current, dst) && usable(dst)) {
      result.path.push_back(dst);
      result.success = true;
      result.status = RouteStatus::kOk;
      return result;
    }
    PeerId next = kInvalidPeer;
    const auto neighbors = deduped_neighbors(ov, current);
    if (opts.lookahead) {
      for (const PeerId w : neighbors) {
        if (usable(w) && !visited.contains(w) &&
            cache.cached_contains(w, dst)) {
          next = w;
          break;
        }
      }
      if (next == kInvalidPeer && opts.lookahead_depth >= 2) {
        for (const PeerId w : neighbors) {
          if (!usable(w) || visited.contains(w)) continue;
          const auto snap = cache.snapshot(w);
          if (std::any_of(snap.begin(), snap.end(), [&](PeerId x) {
                return usable(x) && cache.cached_contains(x, dst);
              })) {
            next = w;
            break;
          }
        }
      }
    }
    if (next == kInvalidPeer) {
      double best = std::numeric_limits<double>::infinity();
      double best_cw = std::numeric_limits<double>::infinity();
      const double here = net::ring_distance(ov.id(current), target);
      for (const PeerId w : neighbors) {
        if (!usable(w) || visited.contains(w)) continue;
        const double d = net::ring_distance(ov.id(w), target);
        const double cw = net::clockwise_distance(ov.id(w), target);
        if (d < best || (d == best && cw < best_cw)) {
          best = d;
          best_cw = cw;
          next = w;
        }
      }
      if (next != kInvalidPeer && !opts.allow_detour && best >= here) {
        next = kInvalidPeer;
      }
    }
    if (next == kInvalidPeer) return result;
    visited.insert(next);
    result.path.push_back(next);
    current = next;
    if (current == dst) {
      result.success = true;
      result.status = RouteStatus::kOk;
      return result;
    }
  }
  return result;
}

/// Routes every (src, dst) pair through `route` and the reference, plainly
/// and avoiding the intermediates of the plain route; returns the number of
/// pairs whose paths or statuses differ, plus the peers whose neighbour
/// list differs from the reference walk.
template <class Route, class RouteAvoiding>
std::size_t count_mismatches(const RingSubstrate& ov, RouteOptions opts,
                             const Route& route,
                             const RouteAvoiding& route_avoiding) {
  std::size_t mismatches = 0;
  const auto n = static_cast<PeerId>(ov.num_peers());
  for (PeerId src = 0; src < n; ++src) {
    if (ov.neighbor_list(src) != deduped_neighbors(ov, src)) ++mismatches;
    for (PeerId dst = 0; dst < n; ++dst) {
      opts.avoid = nullptr;
      const RouteResult got = route(src, dst);
      const RouteResult want = snapshot_scan_route(ov, src, dst, opts);
      if (got.status != want.status || got.path != want.path) ++mismatches;
      if (want.path.size() <= 2) continue;
      const FlatSet<PeerId> avoid(want.path.begin() + 1, want.path.end() - 1);
      opts.avoid = &avoid;
      const RouteResult got_avoiding = route_avoiding(src, dst, avoid);
      const RouteResult want_avoiding =
          snapshot_scan_route(ov, src, dst, opts);
      if (got_avoiding.status != want_avoiding.status ||
          got_avoiding.path != want_avoiding.path) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

TEST(LookaheadRouting, ReverseIndexMatchesSnapshotScans) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 300, 11);
  core::SelectSystem sys(g, core::SelectParams{}, 11);
  sys.build();
  auto& ov = sys.overlay();
  const auto n = static_cast<PeerId>(ov.num_peers());

  // Freshly built, through the system's own routes and gossip snapshots.
  const auto sys_route = [&sys](PeerId a, PeerId b) { return sys.route(a, b); };
  const auto sys_avoiding = [&sys](PeerId a, PeerId b,
                                   const FlatSet<PeerId>& avoid) {
    return sys.route_avoiding(a, b, avoid);
  };
  const RouteOptions sys_opts = sys.route_options();
  EXPECT_EQ(count_mismatches(ov, sys_opts, sys_route, sys_avoiding), 0u)
      << "freshly built";

  // Stale L_p: a cache of its own, then random link churn, then only some
  // snapshots refreshed.
  LookaheadCache cache(ov);
  cache.refresh_all();
  RouteOptions opts = sys_opts;
  opts.lookahead_cache = &cache;
  const auto own_route = [&ov, &opts](PeerId a, PeerId b) {
    RouteOptions o = opts;
    o.avoid = nullptr;
    return ov.greedy_route(a, b, o);
  };
  const auto own_avoiding = [&ov, &opts](PeerId a, PeerId b,
                                         const FlatSet<PeerId>& avoid) {
    RouteOptions o = opts;
    o.avoid = &avoid;
    return ov.greedy_route(a, b, o);
  };
  Rng rng(11);
  const auto churn_links = [&](int changes) {
    for (int i = 0; i < changes; ++i) {
      const auto a = static_cast<PeerId>(rng.below(n));
      if (rng.chance(0.5) || ov.out_degree(a) == 0) {
        ov.add_long_link(a, static_cast<PeerId>(rng.below(n)));
      } else {
        ov.remove_long_link(a, ov.out_links(a)[rng.below(ov.out_degree(a))]);
      }
    }
  };
  churn_links(400);
  for (PeerId p = 0; p < n; ++p) {
    if (rng.chance(0.5)) cache.refresh(p);
  }
  std::size_t stale = 0;
  for (PeerId p = 0; p < n; ++p) stale += cache.stale_entries(p);
  ASSERT_GT(stale, 0u);
  EXPECT_EQ(count_mismatches(ov, opts, own_route, own_avoiding), 0u)
      << "stale snapshots";

  // Right after a snapshot change: the next route must see the new index.
  churn_links(400);
  for (PeerId p = 0; p < n; ++p) {
    if (rng.chance(0.5)) cache.refresh(p);
  }
  EXPECT_EQ(count_mismatches(ov, opts, own_route, own_avoiding), 0u)
      << "routes right after a snapshot change";

  // 10% of peers offline, through the system's routes again.
  for (PeerId p = 0; p < n; ++p) {
    if (rng.chance(0.1)) sys.set_peer_online(p, false);
  }
  EXPECT_EQ(count_mismatches(ov, sys_opts, sys_route, sys_avoiding), 0u)
      << "10% offline";
  EXPECT_EQ(count_mismatches(ov, opts, own_route, own_avoiding), 0u)
      << "10% offline, stale snapshots";
}

}  // namespace
}  // namespace sel::overlay
