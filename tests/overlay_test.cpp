#include "overlay/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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

TEST(RingSubstrate, JoinTracksCountAndState) {
  RingSubstrate ov(5);
  EXPECT_EQ(ov.joined_count(), 0u);
  ov.join(2, net::OverlayId(0.5));
  EXPECT_TRUE(ov.joined(2));
  EXPECT_FALSE(ov.joined(0));
  EXPECT_EQ(ov.joined_count(), 1u);
  EXPECT_DOUBLE_EQ(ov.id(2).value(), 0.5);
  ov.join(2, net::OverlayId(0.6));  // rejoin updates id, not count
  EXPECT_EQ(ov.joined_count(), 1u);
  EXPECT_DOUBLE_EQ(ov.id(2).value(), 0.6);
}

TEST(RingSubstrate, OnlineFlagToggles) {
  RingSubstrate ov(3);
  ov.join(0, net::OverlayId(0.1));
  EXPECT_TRUE(ov.online(0));
  ov.set_online(0, false);
  EXPECT_FALSE(ov.online(0));
}

TEST(RingSubstrate, RingFollowsIdOrder) {
  RingSubstrate ov(4);
  ov.join(0, net::OverlayId(0.8));
  ov.join(1, net::OverlayId(0.2));
  ov.join(2, net::OverlayId(0.5));
  ov.join(3, net::OverlayId(0.9));
  ov.rebuild_ring();
  // Sorted: 1(0.2) -> 2(0.5) -> 0(0.8) -> 3(0.9) -> wraps to 1.
  EXPECT_EQ(ov.successor(1), 2u);
  EXPECT_EQ(ov.successor(2), 0u);
  EXPECT_EQ(ov.successor(0), 3u);
  EXPECT_EQ(ov.successor(3), 1u);
  EXPECT_EQ(ov.predecessor(1), 3u);
  EXPECT_EQ(ov.predecessor(3), 0u);
}

TEST(RingSubstrate, RingWithSinglePeer) {
  RingSubstrate ov(3);
  ov.join(1, net::OverlayId(0.4));
  ov.rebuild_ring();
  EXPECT_EQ(ov.successor(1), kInvalidPeer);
  EXPECT_EQ(ov.predecessor(1), kInvalidPeer);
}

TEST(RingSubstrate, OnlineOnlyRingSkipsOffline) {
  RingSubstrate ov = ring_of(5);
  ov.set_online(2, false);
  ov.rebuild_ring(/*online_only=*/true);
  EXPECT_EQ(ov.successor(1), 3u);  // skips 2
  EXPECT_EQ(ov.predecessor(3), 1u);
  EXPECT_EQ(ov.successor(2), kInvalidPeer);
  EXPECT_EQ(ov.predecessor(2), kInvalidPeer);
}

TEST(RingSubstrate, EqualIdsBreakTiesByPeer) {
  RingSubstrate ov(3);
  ov.join(0, net::OverlayId(0.5));
  ov.join(1, net::OverlayId(0.5));
  ov.join(2, net::OverlayId(0.5));
  ov.rebuild_ring();
  EXPECT_EQ(ov.successor(0), 1u);
  EXPECT_EQ(ov.successor(1), 2u);
  EXPECT_EQ(ov.successor(2), 0u);
}

TEST(RingSubstrate, AddLongLinkMaintainsBothDirections) {
  RingSubstrate ov = ring_of(4);
  EXPECT_TRUE(ov.add_long_link(0, 2));
  EXPECT_EQ(ov.out_degree(0), 1u);
  EXPECT_EQ(ov.in_degree(2), 1u);
  EXPECT_TRUE(ov.linked(0, 2));
  EXPECT_TRUE(ov.linked(2, 0));  // TCP is bidirectional
}

TEST(RingSubstrate, AddLongLinkRejectsDuplicatesAndSelf) {
  RingSubstrate ov = ring_of(4);
  EXPECT_TRUE(ov.add_long_link(0, 2));
  EXPECT_FALSE(ov.add_long_link(0, 2));
  EXPECT_FALSE(ov.add_long_link(1, 1));
}

TEST(RingSubstrate, AddLongLinkRequiresJoinedEnds) {
  RingSubstrate ov(4);
  ov.join(0, net::OverlayId(0.1));
  EXPECT_FALSE(ov.add_long_link(0, 1));  // 1 not joined
  EXPECT_FALSE(ov.add_long_link(1, 0));
}

TEST(RingSubstrate, RemoveLongLinkCleansBothSides) {
  RingSubstrate ov = ring_of(4);
  ov.add_long_link(0, 2);
  EXPECT_TRUE(ov.remove_long_link(0, 2));
  EXPECT_EQ(ov.out_degree(0), 0u);
  EXPECT_EQ(ov.in_degree(2), 0u);
  EXPECT_FALSE(ov.remove_long_link(0, 2));  // already gone
}

TEST(RingSubstrate, NeighborListDeduplicatesAndIncludesRing) {
  RingSubstrate ov = ring_of(5);
  ov.add_long_link(0, 1);  // 1 is also succ of 0
  ov.add_long_link(0, 3);
  ov.add_long_link(2, 0);  // incoming
  const auto nbrs = ov.neighbor_list(0);
  // succ=1, pred=4, out={1,3}, in={2} -> {1,4,3,2}
  EXPECT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(std::count(nbrs.begin(), nbrs.end(), 1u), 1);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), 4u), nbrs.end());
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), 3u), nbrs.end());
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), 2u), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<PeerId>{1, 4, 3, 2}));  // visit order
  // A peer linked both ways, and a two-peer ring whose succ is its pred:
  // each is visited once.
  ov.add_long_link(3, 0);
  EXPECT_EQ(ov.neighbor_list(0), (std::vector<PeerId>{1, 4, 3, 2}));
  RingSubstrate pair = ring_of(2);
  pair.add_long_link(1, 0);
  EXPECT_EQ(pair.neighbor_list(0), (std::vector<PeerId>{1}));
}

TEST(RingSubstrate, NeighborsOfContainsChecksRingAndLinks) {
  RingSubstrate ov = ring_of(6);
  EXPECT_TRUE(ov.neighbors_of_contains(0, 1));   // succ
  EXPECT_TRUE(ov.neighbors_of_contains(0, 5));   // pred
  EXPECT_FALSE(ov.neighbors_of_contains(0, 3));
  ov.add_long_link(3, 0);
  EXPECT_TRUE(ov.neighbors_of_contains(0, 3));  // incoming counts
}

TEST(RingSubstrate, AverageLongDegree) {
  RingSubstrate ov = ring_of(4);
  ov.add_long_link(0, 2);
  ov.add_long_link(1, 3);
  EXPECT_DOUBLE_EQ(ov.average_long_degree(), 0.5);
}

TEST(RingSubstrate, InOutLinkSymmetryInvariant) {
  // After arbitrary add/remove sequences, out-links and in-links remain
  // mirror images.
  RingSubstrate ov = ring_of(10);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<PeerId>(rng.below(10));
    const auto b = static_cast<PeerId>(rng.below(10));
    if (rng.chance(0.6)) {
      ov.add_long_link(a, b);
    } else {
      ov.remove_long_link(a, b);
    }
  }
  for (PeerId p = 0; p < 10; ++p) {
    for (const PeerId q : ov.out_links(p)) {
      const auto ins = ov.in_links(q);
      EXPECT_NE(std::find(ins.begin(), ins.end(), p), ins.end());
    }
    for (const PeerId q : ov.in_links(p)) {
      const auto outs = ov.out_links(q);
      EXPECT_NE(std::find(outs.begin(), outs.end(), p), outs.end());
    }
  }
}

// -- version stamps ---------------------------------------------------------

struct Versions {
  std::uint64_t link;
  std::uint64_t neighbor;
  bool operator==(const Versions&) const = default;
};

std::vector<Versions> versions_of(const RingSubstrate& ov) {
  std::vector<Versions> out;
  for (PeerId p = 0; p < ov.num_peers(); ++p) {
    out.push_back({ov.link_version(p), ov.neighbor_version(p)});
  }
  return out;
}

TEST(RingSubstrateVersions, StartAtOneAndJoinBumps) {
  RingSubstrate ov(3);
  EXPECT_EQ(ov.link_version(0), 1u);
  EXPECT_EQ(ov.neighbor_version(0), 1u);
  const auto clock = ov.version_clock();
  ov.join(1, net::OverlayId(0.3));
  EXPECT_GT(ov.link_version(1), clock);
  EXPECT_EQ(ov.neighbor_version(1), ov.link_version(1));
  EXPECT_EQ(ov.link_version(0), 1u);
  EXPECT_EQ(ov.link_version(2), 1u);
}

TEST(RingSubstrateVersions, AddAndRemoveBumpBothEnds) {
  RingSubstrate ov = ring_of(5);
  auto before = versions_of(ov);
  auto clock = ov.version_clock();
  ASSERT_TRUE(ov.add_long_link(0, 3));
  auto after = versions_of(ov);
  for (const PeerId p : {0u, 3u}) {
    EXPECT_GT(after[p].link, clock) << p;
    EXPECT_EQ(after[p].neighbor, after[p].link) << p;
  }
  for (const PeerId p : {1u, 2u, 4u}) EXPECT_EQ(after[p], before[p]) << p;

  before = after;
  clock = ov.version_clock();
  ASSERT_TRUE(ov.remove_long_link(0, 3));
  after = versions_of(ov);
  for (const PeerId p : {0u, 3u}) {
    EXPECT_GT(after[p].link, clock) << p;
    EXPECT_EQ(after[p].neighbor, after[p].link) << p;
  }
  for (const PeerId p : {1u, 2u, 4u}) EXPECT_EQ(after[p], before[p]) << p;
}

TEST(RingSubstrateVersions, RefusedAddAndNoOpRemoveBumpNothing) {
  RingSubstrate ov(5);
  for (PeerId p = 0; p < 4; ++p) {
    ov.join(p, net::OverlayId(static_cast<double>(p) / 4.0));
  }
  ov.rebuild_ring();
  ASSERT_TRUE(ov.add_long_link(0, 2));
  const auto before = versions_of(ov);
  const auto clock = ov.version_clock();
  EXPECT_FALSE(ov.add_long_link(0, 2));  // duplicate
  EXPECT_FALSE(ov.add_long_link(1, 1));  // self-loop
  EXPECT_FALSE(ov.add_long_link(1, 4));  // 4 never joined
  EXPECT_FALSE(ov.add_long_link(4, 1));
  EXPECT_FALSE(ov.remove_long_link(2, 0));  // only 0 -> 2 exists
  EXPECT_FALSE(ov.remove_long_link(1, 3));
  EXPECT_EQ(versions_of(ov), before);
  EXPECT_EQ(ov.version_clock(), clock);
}

TEST(RingSubstrateVersions, IdAndLivenessChangesBumpNothing) {
  RingSubstrate ov = ring_of(4);
  const auto before = versions_of(ov);
  ov.set_id(1, net::OverlayId(0.9));
  ov.set_online(2, false);
  EXPECT_EQ(versions_of(ov), before);
}

TEST(RingSubstrateVersions, RebuildRingBumpsExactlyChangedRingNeighbors) {
  RingSubstrate ov = ring_of(6);  // ids 0, 1/6, ..., 5/6
  ov.add_long_link(0, 3);
  auto before = versions_of(ov);
  ov.rebuild_ring();  // nothing moved
  EXPECT_EQ(versions_of(ov), before);

  // Peer 1 moves between 3 and 4: 0, 1, 2, 3 and 4 get a new successor or
  // predecessor; 5 keeps both.
  auto clock = ov.version_clock();
  ov.set_id(1, net::OverlayId(0.6));
  ov.rebuild_ring();
  auto after = versions_of(ov);
  for (PeerId p = 0; p < 6; ++p) {
    EXPECT_EQ(after[p].link, before[p].link) << p;
    if (p == 5) {
      EXPECT_EQ(after[p].neighbor, before[p].neighbor);
    } else {
      EXPECT_GT(after[p].neighbor, clock) << p;
    }
  }

  // Online-only repair: offline 2 loses its ring links, 0 and 3 (now its
  // ring neighbours) re-close the gap; 1, 4 and 5 keep theirs.
  before = after;
  clock = ov.version_clock();
  ov.set_online(2, false);
  ov.rebuild_ring(/*online_only=*/true);
  EXPECT_EQ(ov.successor(2), kInvalidPeer);
  after = versions_of(ov);
  for (PeerId p = 0; p < 6; ++p) {
    EXPECT_EQ(after[p].link, before[p].link) << p;
    if (p == 0 || p == 2 || p == 3) {
      EXPECT_GT(after[p].neighbor, clock) << p;
    } else {
      EXPECT_EQ(after[p].neighbor, before[p].neighbor) << p;
    }
  }
  // Already invalidated: a second repair changes nothing.
  before = after;
  ov.rebuild_ring(/*online_only=*/true);
  EXPECT_EQ(versions_of(ov), before);
}

}  // namespace
}  // namespace sel::overlay
