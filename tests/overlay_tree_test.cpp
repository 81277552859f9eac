#include "overlay/tree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "overlay/system.hpp"

namespace sel::overlay {
namespace {

/// Minimal Overlay over a bare RingSubstrate (isolated social graph): the
/// subscriber-first builder only needs routing, liveness and neighbours.
class BareRingOverlay final : public RingOverlay {
 public:
  explicit BareRingOverlay(std::size_t n)
      : BareRingOverlay(std::make_unique<graph::SocialGraph>(
            graph::GraphBuilder(n).build())) {}
  [[nodiscard]] std::string_view name() const override { return "bare-ring"; }
  void build() override {}

 private:
  explicit BareRingOverlay(std::unique_ptr<graph::SocialGraph> g)
      : RingOverlay(*g, RouteOptions{}), owned_graph_(std::move(g)) {}
  std::unique_ptr<graph::SocialGraph> owned_graph_;
};

TEST(DisseminationTree, StartsWithRootOnly) {
  DisseminationTree t(5);
  EXPECT_EQ(t.root(), 5u);
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_TRUE(t.contains(5));
  EXPECT_FALSE(t.contains(0));
  EXPECT_EQ(t.parent(5), kInvalidPeer);
}

TEST(DisseminationTree, AddPathBuildsChain) {
  DisseminationTree t(0);
  const std::vector<PeerId> path{0, 1, 2, 3};
  t.add_path(path);
  EXPECT_EQ(t.node_count(), 4u);
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.parent(2), 1u);
  EXPECT_EQ(t.parent(3), 2u);
  EXPECT_EQ(t.depth(3), 3u);
}

TEST(DisseminationTree, MergingPathsKeepsFirstParent) {
  DisseminationTree t(0);
  t.add_path(std::vector<PeerId>{0, 1, 2});
  t.add_path(std::vector<PeerId>{0, 3, 2, 4});  // 2 already has parent 1
  EXPECT_EQ(t.parent(2), 1u);  // unchanged
  EXPECT_EQ(t.parent(4), 2u);  // new suffix attaches
  EXPECT_EQ(t.node_count(), 5u);
}

TEST(DisseminationTree, EmptyPathIsNoop) {
  DisseminationTree t(0);
  t.add_path(std::span<const PeerId>{});
  EXPECT_EQ(t.node_count(), 1u);
}

TEST(DisseminationTree, ChildrenAndForwardCounts) {
  DisseminationTree t(0);
  t.add_path(std::vector<PeerId>{0, 1});
  t.add_path(std::vector<PeerId>{0, 2});
  t.add_path(std::vector<PeerId>{0, 1, 3});
  EXPECT_EQ(t.forward_count(0), 2u);
  EXPECT_EQ(t.forward_count(1), 1u);
  EXPECT_EQ(t.forward_count(3), 0u);
  EXPECT_EQ(t.children(0).size(), 2u);
}

TEST(DisseminationTree, AddChildAttaches) {
  DisseminationTree t(0);
  t.add_child(0, 7);
  t.add_child(7, 9);
  EXPECT_EQ(t.parent(9), 7u);
  EXPECT_EQ(t.depth(9), 2u);
  t.add_child(0, 9);  // already present: no-op
  EXPECT_EQ(t.parent(9), 7u);
}

TEST(DisseminationTree, NodesOrderParentsBeforeChildren) {
  DisseminationTree t(0);
  t.add_path(std::vector<PeerId>{0, 4, 2});
  t.add_path(std::vector<PeerId>{0, 1, 3});
  const auto& order = t.nodes();
  ASSERT_EQ(order.front(), 0u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const PeerId parent = t.parent(order[i]);
    const auto parent_pos =
        std::find(order.begin(), order.end(), parent) - order.begin();
    EXPECT_LT(static_cast<std::size_t>(parent_pos), i);
  }
}

TEST(DisseminationTree, DepthOfMissingNodeIsMax) {
  DisseminationTree t(0);
  EXPECT_EQ(t.depth(3), static_cast<std::size_t>(-1));
}

TEST(DisseminationTree, RelayNodesExcludesRootAndSubscribers) {
  DisseminationTree t(0);
  t.add_path(std::vector<PeerId>{0, 9, 1});  // 9 is a relay
  t.add_path(std::vector<PeerId>{0, 2});
  const FlatSet<PeerId> subs{1, 2};
  const auto relays = t.relay_nodes(subs);
  ASSERT_EQ(relays.size(), 1u);
  EXPECT_EQ(relays[0], 9u);
}

TEST(DisseminationTree, SubscriberRelaysNotCounted) {
  // A subscriber that forwards is not a relay node (paper Sec. II-B).
  DisseminationTree t(0);
  t.add_path(std::vector<PeerId>{0, 1, 2});  // 1 forwards to 2, both subs
  const FlatSet<PeerId> subs{1, 2};
  EXPECT_TRUE(t.relay_nodes(subs).empty());
}

TEST(DisseminationTree, PositionalViewAgreesWithPeerApiOnRandomMerges) {
  // Random add_path / add_child sequences against a reference model (first
  // parent wins, children in insertion order). Child order fixes send order
  // and so every equal-time tie-break downstream, so it is compared too.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto universe = static_cast<PeerId>(8 + rng.below(56));
    const auto root = static_cast<PeerId>(rng.below(universe));
    DisseminationTree t(root);
    std::map<PeerId, PeerId> parent;
    std::map<PeerId, std::vector<PeerId>> kids;
    std::vector<PeerId> order{root};
    const auto attach = [&](PeerId up, PeerId child) {
      if (child == root || parent.contains(child)) return;
      parent[child] = up;
      kids[up].push_back(child);
      order.push_back(child);
    };
    for (int op = 0; op < 30; ++op) {
      if (rng.chance(0.5)) {
        std::vector<PeerId> path{root};
        const std::size_t len = 1 + rng.below(5);
        for (std::size_t i = 0; i < len; ++i) {
          path.push_back(static_cast<PeerId>(rng.below(universe)));
        }
        t.add_path(path);
        for (std::size_t i = 1; i < path.size(); ++i) {
          attach(path[i - 1], path[i]);
        }
      } else {
        const PeerId up = order[rng.below(order.size())];
        const auto child = static_cast<PeerId>(rng.below(universe));
        t.add_child(up, child);
        attach(up, child);
      }
    }

    ASSERT_EQ(t.node_count(), order.size()) << "seed " << seed;
    ASSERT_EQ(std::vector<PeerId>(t.nodes().begin(), t.nodes().end()), order);
    for (DisseminationTree::Pos pos = 0; pos < t.node_count(); ++pos) {
      const PeerId p = t.peer_at(pos);
      EXPECT_EQ(t.position(p), pos);
      EXPECT_TRUE(t.contains(p));
      const auto up = t.parent_at(pos);
      if (pos == 0) {
        EXPECT_EQ(up, DisseminationTree::kNoPos);
        EXPECT_EQ(t.parent(p), kInvalidPeer);
      } else {
        ASSERT_LT(up, pos);  // parents precede children
        EXPECT_EQ(t.peer_at(up), t.parent(p));
        EXPECT_EQ(t.parent(p), parent.at(p));
        EXPECT_EQ(t.depth_at(pos), t.depth_at(up) + 1);
      }
      EXPECT_EQ(t.depth_at(pos), t.depth(p));
      std::vector<PeerId> by_pos;
      for (const auto c : t.children_at(pos)) {
        EXPECT_EQ(t.parent_at(c), pos);
        by_pos.push_back(t.peer_at(c));
      }
      const auto by_peer = t.children(p);
      EXPECT_EQ(t.children_at(pos).size(), by_peer.size());
      EXPECT_EQ(by_pos, std::vector<PeerId>(by_peer.begin(), by_peer.end()));
      const auto it = kids.find(p);
      EXPECT_EQ(by_pos, it == kids.end() ? std::vector<PeerId>{} : it->second)
          << "seed " << seed << " peer " << p;
    }
    for (PeerId p = 0; p < universe; ++p) {
      if (t.contains(p)) continue;
      EXPECT_EQ(t.position(p), DisseminationTree::kNoPos);
      EXPECT_TRUE(t.children(p).empty());
      EXPECT_EQ(t.depth(p), static_cast<std::size_t>(-1));
    }
  }
}

TEST(SubscriberFirstTree, ZeroRelaysOnConnectedSubscribers) {
  // 0 (publisher) -- 1 -- 2 chain of subscriber links.
  BareRingOverlay sys(4);
  RingSubstrate& ov = sys.overlay();
  for (PeerId p = 0; p < 4; ++p) ov.join(p, net::OverlayId(p * 0.25));
  ov.rebuild_ring();
  ov.add_long_link(0, 1);
  ov.add_long_link(1, 2);
  const FlatSet<PeerId> subs{1, 2};
  const auto tree = subscriber_first_tree(sys, subs, 0);
  EXPECT_TRUE(tree.contains(1));
  EXPECT_TRUE(tree.contains(2));
  EXPECT_TRUE(tree.relay_nodes(subs).empty());
}

TEST(SubscriberFirstTree, TwoHopAttachUsesSingleRelay) {
  // Subscriber 3 is only reachable via non-subscriber 2: 0 -- 2 -- 3.
  BareRingOverlay sys(5);
  RingSubstrate& ov = sys.overlay();
  for (PeerId p = 0; p < 5; ++p) ov.join(p, net::OverlayId(p * 0.19));
  ov.rebuild_ring();
  // Disconnect ring effects by using far ids? ring links exist; subscriber
  // 3's ring neighbours include 2 and 4 (non-subscribers), so phase 1 can't
  // reach it; phase 2 attaches through one of them.
  const FlatSet<PeerId> subs{3};
  const auto tree = subscriber_first_tree(sys, subs, 0);
  EXPECT_TRUE(tree.contains(3));
  const auto relays = tree.relay_nodes(subs);
  EXPECT_LE(relays.size(), 1u);
}

TEST(SubscriberFirstTree, SkipsOfflineSubscribers) {
  BareRingOverlay sys(3);
  RingSubstrate& ov = sys.overlay();
  for (PeerId p = 0; p < 3; ++p) ov.join(p, net::OverlayId(p * 0.3));
  ov.rebuild_ring();
  ov.add_long_link(0, 1);
  ov.set_online(1, false);
  const FlatSet<PeerId> subs{1};
  const auto tree = subscriber_first_tree(sys, subs, 0);
  EXPECT_FALSE(tree.contains(1));
}

}  // namespace
}  // namespace sel::overlay
