// Overlay-conformance suite: every overlay in the factory table is held to
// the same routing-concept contract (DESIGN.md §18). Adding a row to the
// table is enough to put an overlay under this net — the suite enumerates
// baselines::overlay_names() at instantiation time.
//
// Contract checked here:
//   - build() joins everyone: route(a, b) round-trips for friend pairs,
//     ends at the target, starts at the source, and success ⇔ kOk;
//   - neighbors() symmetry when capabilities().symmetric_neighbors;
//   - route_avoiding(): honest kUnsupported without the capability, real
//     detours (avoid set never traversed) with it;
//   - churn: routes to offline targets fail, successful routes never
//     traverse offline intermediates, maintenance_round() keeps online
//     friend pairs deliverable;
//   - same seed ⇒ identical topology and identical routes;
//   - topology and routes match a pinned per-overlay fingerprint.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "common/flat_set.hpp"
#include "common/rng.hpp"
#include "baselines/factory.hpp"
#include "graph/profiles.hpp"

namespace sel::overlay {
namespace {

class OverlayConformance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    graph_ = graph::make_dataset_graph(graph::profile_by_name("facebook"),
                                       200, 7);
    sys_ = baselines::make_overlay(GetParam(), graph_, {.seed = 7});
    sys_->build();
  }

  /// Deterministic sample of (user, friend) lookup pairs.
  [[nodiscard]] std::vector<std::pair<PeerId, PeerId>> friend_pairs(
      std::size_t count, std::uint64_t seed) const {
    std::vector<std::pair<PeerId, PeerId>> pairs;
    Rng rng(derive_seed(seed, 0xC0F));
    while (pairs.size() < count) {
      const auto src = static_cast<PeerId>(rng.below(graph_.num_nodes()));
      const auto& friends = graph_.neighbors(src);
      if (friends.empty()) continue;
      pairs.emplace_back(src, friends[rng.below(friends.size())]);
    }
    return pairs;
  }

  graph::SocialGraph graph_;
  std::unique_ptr<Overlay> sys_;
};

TEST_P(OverlayConformance, ReportsIdentityAndSize) {
  EXPECT_EQ(sys_->name(), GetParam());
  EXPECT_EQ(&sys_->social(), &graph_);
  EXPECT_EQ(sys_->num_peers(), graph_.num_nodes());
}

TEST_P(OverlayConformance, LookupRoundTripForFriendPairs) {
  std::size_t delivered = 0;
  const auto pairs = friend_pairs(60, 1);
  for (const auto& [from, to] : pairs) {
    const RouteResult r = sys_->route(from, to);
    // Status and legacy flag must agree; kUnsupported is never a legal
    // answer for plain point-to-point routing.
    EXPECT_EQ(r.success, r.status == RouteStatus::kOk);
    EXPECT_NE(r.status, RouteStatus::kUnsupported);
    if (!r.success) continue;
    ++delivered;
    ASSERT_GE(r.path.size(), 1u);
    EXPECT_EQ(r.path.front(), from);
    EXPECT_EQ(r.path.back(), to);
  }
  // Fully-online overlays must deliver essentially all friend lookups.
  EXPECT_GE(delivered, pairs.size() * 9 / 10) << GetParam();
}

TEST_P(OverlayConformance, NeighborsAreDeduplicatedAndInRange) {
  for (PeerId p = 0; p < sys_->num_peers(); p += 7) {
    auto nb = sys_->neighbors(p);
    for (const PeerId q : nb) {
      EXPECT_LT(q, sys_->num_peers());
      EXPECT_NE(q, kInvalidPeer);
    }
    const auto before = nb.size();
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    EXPECT_EQ(nb.size(), before) << "duplicate neighbours for peer " << p;
  }
}

TEST_P(OverlayConformance, NeighborSymmetryWhereClaimed) {
  if (!sys_->capabilities().symmetric_neighbors) {
    GTEST_SKIP() << GetParam() << " does not claim symmetric neighbors";
  }
  for (PeerId p = 0; p < sys_->num_peers(); ++p) {
    for (const PeerId q : sys_->neighbors(p)) {
      const auto back = sys_->neighbors(q);
      EXPECT_NE(std::find(back.begin(), back.end(), p), back.end())
          << p << " -> " << q << " link is one-way";
    }
  }
}

TEST_P(OverlayConformance, RouteAvoidingHonorsCapabilityFlag) {
  const bool claimed = sys_->capabilities().route_avoiding;
  std::size_t checked = 0;
  for (const auto& [from, to] : friend_pairs(40, 2)) {
    const RouteResult direct = sys_->route(from, to);
    if (!direct.success || direct.path.size() <= 2) continue;
    // Ask for a detour around the first relay of the direct path.
    const FlatSet<PeerId> avoid{direct.path[1]};
    const RouteResult detour = sys_->route_avoiding(from, to, avoid);
    if (!claimed) {
      EXPECT_EQ(detour.status, RouteStatus::kUnsupported);
      EXPECT_FALSE(detour.success);
      continue;
    }
    EXPECT_NE(detour.status, RouteStatus::kUnsupported);
    if (detour.success) {
      for (const PeerId hop : detour.path) {
        EXPECT_FALSE(avoid.contains(hop))
            << GetParam() << " routed through an avoided peer";
      }
    }
    ++checked;
  }
  if (claimed) {
    EXPECT_GT(checked, 0u) << "no multi-hop path exercised route_avoiding";
  }
}

TEST_P(OverlayConformance, ChurnContractUnderMaintenance) {
  // Knock out a deterministic 20%; the overlay may mend itself.
  Rng rng(derive_seed(7, 0xDEAD));
  std::vector<bool> offline(sys_->num_peers(), false);
  for (PeerId p = 0; p < sys_->num_peers(); ++p) {
    if (rng.chance(0.2)) {
      offline[p] = true;
      sys_->set_peer_online(p, false);
    }
  }
  for (int round = 0; round < 3; ++round) sys_->maintenance_round();

  std::size_t attempted = 0;
  std::size_t delivered = 0;
  for (const auto& [from, to] : friend_pairs(80, 3)) {
    if (offline[from]) continue;  // source liveness is the caller's problem
    const RouteResult r = sys_->route(from, to);
    if (offline[to]) {
      // Routing to an offline peer must fail honestly, and at once: no hop
      // can enter the target, so walking toward it is wasted work.
      EXPECT_FALSE(r.success) << GetParam() << " delivered to offline peer";
      EXPECT_EQ(r.status, RouteStatus::kNoRoute) << GetParam();
      EXPECT_EQ(r.path, std::vector<PeerId>{from})
          << GetParam() << " walked toward offline peer " << to;
      continue;
    }
    ++attempted;
    if (!r.success) continue;
    ++delivered;
    // Offline peers must never appear as intermediates.
    for (std::size_t i = 1; i + 1 < r.path.size(); ++i) {
      EXPECT_FALSE(offline[r.path[i]])
          << GetParam() << " relayed through offline peer " << r.path[i];
    }
  }
  // After maintenance, online friend pairs stay overwhelmingly deliverable.
  EXPECT_GE(delivered, attempted * 3 / 4) << GetParam();

  // Recovery: bring everyone back; lookups must recover too.
  for (PeerId p = 0; p < sys_->num_peers(); ++p) {
    sys_->set_peer_online(p, true);
  }
  for (int round = 0; round < 3; ++round) sys_->maintenance_round();
  std::size_t recovered = 0;
  const auto pairs = friend_pairs(40, 4);
  for (const auto& [from, to] : pairs) {
    if (sys_->route(from, to).success) ++recovered;
  }
  EXPECT_GE(recovered, pairs.size() * 9 / 10) << GetParam();
}

TEST_P(OverlayConformance, SameSeedSameTopologySameRoutes) {
  auto twin = baselines::make_overlay(GetParam(), graph_, {.seed = 7});
  twin->build();
  EXPECT_EQ(sys_->build_iterations(), twin->build_iterations());
  for (PeerId p = 0; p < sys_->num_peers(); p += 5) {
    EXPECT_EQ(sys_->neighbors(p), twin->neighbors(p)) << "peer " << p;
  }
  for (const auto& [from, to] : friend_pairs(40, 5)) {
    const RouteResult a = sys_->route(from, to);
    const RouteResult b = twin->route(from, to);
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.path, b.path);
  }
}

// -- pinned topology fingerprints -----------------------------------------
//
// One order-sensitive 64-bit hash per overlay over every peer's neighbors()
// and the status and path of a fixed sample of friend-pair routes. The
// values were printed by the implementation that built overlays through a
// self-registering registry and are pinned here, so a refactor that touches
// any overlay's topology or routing shows up: they must never change.
TEST_P(OverlayConformance, TopologyAndRoutesMatchPinnedFingerprint) {
  static const std::map<std::string, std::uint64_t> kPinned = {
      {"select", 0x7e476d76aadda9e4ULL},
      {"symphony", 0xf61e612d5deba7f1ULL},
      {"bayeux", 0xf98cb7f111db3f5aULL},
      {"vitis", 0xaf73a5bbe26aca24ULL},
      {"omen", 0xddfc4abf379dafd6ULL},
      {"random", 0xcf0eefaa8280847bULL},
      {"social_dht", 0x3870cafe3aea523aULL},
      {"select_centrality", 0x9afc32f15dedf165ULL},
  };
  std::uint64_t h = 0x0e11a7f1a9e5ULL;
  auto mix = [&h](std::uint64_t v) { h = splitmix64(h ^ v); };
  for (PeerId p = 0; p < sys_->num_peers(); ++p) {
    const auto nb = sys_->neighbors(p);
    mix(nb.size());
    for (const PeerId q : nb) mix(q);
  }
  for (const auto& [from, to] : friend_pairs(60, 6)) {
    const RouteResult r = sys_->route(from, to);
    mix(static_cast<std::uint64_t>(r.status));
    mix(r.path.size());
    for (const PeerId q : r.path) mix(q);
  }
  const auto pin = kPinned.find(GetParam());
  ASSERT_NE(pin, kPinned.end()) << GetParam() << ": 0x" << std::hex << h;
  EXPECT_EQ(h, pin->second) << GetParam() << ": 0x" << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, OverlayConformance,
    ::testing::ValuesIn(baselines::overlay_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      // gtest parameter names must be alphanumeric.
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '_'), name.end());
      return name;
    });

}  // namespace
}  // namespace sel::overlay
