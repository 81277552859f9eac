#include "select/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "graph/generators.hpp"
#include "graph/profiles.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "pubsub/metrics.hpp"

namespace sel::core {
namespace {

using overlay::PeerId;

graph::SocialGraph fb_graph(std::size_t n, std::uint64_t seed) {
  return graph::make_dataset_graph(graph::profile_by_name("facebook"), n, seed);
}

TEST(SelectJoin, AllPeersJoinWithValidIds) {
  const auto g = fb_graph(300, 1);
  SelectSystem sys(g, SelectParams{}, 1);
  sys.join_all();
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    EXPECT_TRUE(sys.overlay().joined(p));
    EXPECT_GE(sys.overlay().id(p).value(), 0.0);
    EXPECT_LT(sys.overlay().id(p).value(), 1.0);
  }
}

TEST(SelectJoin, InitialLinksRespectBudget) {
  const auto g = fb_graph(300, 2);
  SelectSystem sys(g, SelectParams{}, 2);
  sys.join_all();
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    EXPECT_LE(sys.overlay().out_degree(p), sys.k());
    EXPECT_LE(sys.overlay().in_degree(p), sys.k());
  }
}

TEST(SelectJoin, InitialLinksAreSocial) {
  const auto g = fb_graph(300, 3);
  SelectSystem sys(g, SelectParams{}, 3);
  sys.join_all();
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    for (const PeerId q : sys.overlay().out_links(p)) {
      EXPECT_TRUE(g.has_edge(p, q)) << p << " -> " << q;
    }
  }
}

TEST(SelectParamsDefaults, KDefaultsToLog2N) {
  const auto g = fb_graph(256, 4);
  SelectSystem sys(g, SelectParams{}, 4);
  EXPECT_EQ(sys.k(), 8u);
  SelectParams custom;
  custom.k_links = 5;
  SelectSystem sys2(g, custom, 4);
  EXPECT_EQ(sys2.k(), 5u);
}

TEST(SelectBuild, ConvergesBeforeRoundCap) {
  const auto g = fb_graph(400, 5);
  SelectSystem sys(g, SelectParams{}, 5);
  sys.build();
  EXPECT_LT(sys.build_iterations(), SelectParams{}.max_rounds);
  EXPECT_TRUE(sys.converged());
}

TEST(SelectBuild, RoundsToStableIdsTracksMovement) {
  auto& sampler = obs::RoundSampler::global();
  sampler.reset();
  const auto g = fb_graph(300, 9);
  SelectSystem sys(g, SelectParams{}, 9);
  sys.build();

  // One time-series point per protocol round was sampled during build.
  std::size_t select_points = 0;
  for (const auto& p : sampler.snapshot()) {
    if (p.label == "select.round") ++select_points;
  }
  EXPECT_EQ(select_points, sys.build_iterations());

  // Identifier movement (Alg. 2) decays as the overlay stabilizes: the
  // first rounds move ids (stable_after > 0) and the metric can never
  // exceed the number of movement-carrying rounds.
  const double stable_after =
      obs::MetricsRegistry::global().gauge("select.rounds_to_stable_ids")
          .value();
  EXPECT_GT(stable_after, 0.0);
  EXPECT_LE(stable_after, static_cast<double>(sys.build_iterations()));
  sampler.reset();
}

TEST(SelectBuild, LinksStaySocialAfterConvergence) {
  const auto g = fb_graph(400, 6);
  SelectSystem sys(g, SelectParams{}, 6);
  sys.build();
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    EXPECT_LE(sys.overlay().out_degree(p), sys.k());
    EXPECT_LE(sys.overlay().in_degree(p), sys.k());
    for (const PeerId q : sys.overlay().out_links(p)) {
      EXPECT_TRUE(g.has_edge(p, q));
    }
  }
}

TEST(SelectBuild, GossipLearnsSocialStrength) {
  const auto g = fb_graph(300, 7);
  SelectSystem sys(g, SelectParams{}, 7);
  sys.build();
  // After convergence most peers know the strength of at least one friend,
  // and every known strength matches the graph truth.
  std::size_t known = 0;
  std::size_t checked = 0;
  for (PeerId p = 0; p < g.num_nodes() && checked < 2000; ++p) {
    for (const PeerId q : g.neighbors(p)) {
      ++checked;
      const double s = sys.known_strength(p, q);
      if (s >= 0.0) {
        ++known;
        EXPECT_DOUBLE_EQ(s, g.social_strength(p, q));
      }
    }
  }
  EXPECT_GT(known, checked / 4);
}

TEST(SelectBuild, ClustersSociallyConnectedPeers) {
  const auto g = fb_graph(400, 8);
  SelectSystem sys(g, SelectParams{}, 8);
  sys.join_all();
  // Average ring distance between friends before vs after reassignment.
  auto avg_friend_distance = [&] {
    double total = 0.0;
    std::size_t count = 0;
    for (PeerId p = 0; p < g.num_nodes(); ++p) {
      for (const PeerId q : g.neighbors(p)) {
        if (q > p) {
          total += net::ring_distance(sys.overlay().id(p),
                                      sys.overlay().id(q));
          ++count;
        }
      }
    }
    return total / static_cast<double>(count);
  };
  const double before = avg_friend_distance();
  sys.run_to_convergence();
  const double after = avg_friend_distance();
  EXPECT_LT(after, before * 0.8);
}

TEST(SelectBuild, Deterministic) {
  const auto g = fb_graph(250, 9);
  SelectSystem a(g, SelectParams{}, 9);
  SelectSystem b(g, SelectParams{}, 9);
  a.build();
  b.build();
  EXPECT_EQ(a.build_iterations(), b.build_iterations());
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    EXPECT_DOUBLE_EQ(a.overlay().id(p).value(), b.overlay().id(p).value());
    EXPECT_EQ(a.overlay().out_degree(p), b.overlay().out_degree(p));
  }
}

TEST(SelectRouting, SocialLookupsSucceedWithFewHops) {
  const auto g = fb_graph(500, 10);
  SelectSystem sys(g, SelectParams{}, 10);
  sys.build();
  const auto hops = pubsub::measure_hops(sys, 300, 10);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
  EXPECT_LT(hops.hops.mean(), 3.0);  // paper: friends 1-2 hops away
}

TEST(SelectTree, CoversSubscribersWithFewRelays) {
  const auto g = fb_graph(500, 11);
  SelectSystem sys(g, SelectParams{}, 11);
  sys.build();
  std::vector<PeerId> publishers;
  for (PeerId p = 0; p < 25; ++p) publishers.push_back(p * 17 % 500);
  const overlay::PubSubSystem ps(sys);
  const auto relays = pubsub::measure_relays(ps, publishers);
  EXPECT_GT(relays.coverage.mean(), 0.99);
  EXPECT_LT(relays.relays_per_path.mean(), 0.5);
}

TEST(SelectAblation, NoIdReassignmentHurtsClustering) {
  const auto g = fb_graph(400, 12);
  SelectParams off;
  off.enable_id_reassignment = false;
  SelectSystem frozen(g, off, 12);
  frozen.build();
  SelectSystem moving(g, SelectParams{}, 12);
  moving.build();
  auto friend_distance = [&g](const SelectSystem& sys) {
    double total = 0.0;
    std::size_t count = 0;
    for (PeerId p = 0; p < g.num_nodes(); ++p) {
      for (const PeerId q : g.neighbors(p)) {
        if (q > p) {
          total += net::ring_distance(sys.overlay().id(p),
                                      sys.overlay().id(q));
          ++count;
        }
      }
    }
    return total / static_cast<double>(count);
  };
  EXPECT_LT(friend_distance(moving), friend_distance(frozen));
}

TEST(SelectAblation, RandomLinksStillBuildUsableOverlay) {
  const auto g = fb_graph(300, 13);
  SelectParams no_lsh;
  no_lsh.enable_lsh_selection = false;
  SelectSystem sys(g, no_lsh, 13);
  sys.build();
  const auto hops = pubsub::measure_hops(sys, 200, 13);
  EXPECT_GT(hops.success_rate(), 0.95);
}

TEST(SelectProjection, InvitedPeersLandNearInviter) {
  // Invited peers split their inviter's ring gap, so invitation subtrees
  // stay regional. We verify the aggregate effect: immediately after
  // join_all (no reassignment yet), friends are already closer than random
  // placement (0.25 expected ring distance).
  const auto g = fb_graph(400, 14);
  SelectSystem sys(g, SelectParams{}, 14);
  sys.join_all();
  double total = 0.0;
  std::size_t count = 0;
  for (PeerId p = 0; p < g.num_nodes(); ++p) {
    for (const PeerId q : g.neighbors(p)) {
      if (q > p) {
        total += net::ring_distance(sys.overlay().id(p), sys.overlay().id(q));
        ++count;
      }
    }
  }
  EXPECT_LT(total / static_cast<double>(count), 0.20);
}

TEST(SelectRouteOptions, TreeRespectsOfflineSubscribers) {
  const auto g = fb_graph(300, 15);
  SelectSystem sys(g, SelectParams{}, 15);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  const PeerId publisher = 0;
  const auto subs = ps.subscribers_of(publisher);
  ASSERT_FALSE(subs.empty());
  const PeerId victim = *subs.begin();
  sys.set_peer_online(victim, false);
  const auto tree = ps.build_tree(publisher);
  EXPECT_FALSE(tree.contains(victim));
}

// -- version-gated recomputes ----------------------------------------------

// SEL_CHECK=full runs every gated recompute anyway and enforces that a skip
// would have been exact (a kept bitmap or L_p snapshot equals its recompute,
// a skipped create_links would change no link). Churn from outside the
// protocol — link adds and drops on both tables, peers joining between
// rounds — must never expose a stale skip.
TEST(SelectGatedRecompute, SkipsStayExactUnderLinkChurnAndLateJoins) {
  const check::ScopedLevel full(check::Level::kFull);
  const check::ScopedFailureCapture capture;
  const auto g = fb_graph(300, 21);
  SelectSystem sys(g, SelectParams{}, 21);
  auto& ov = sys.overlay();
  const auto n = static_cast<PeerId>(g.num_nodes());
  Rng rng(21);
  std::vector<PeerId> late;
  for (PeerId p = 0; p < n; ++p) {
    if (rng.chance(0.6)) {
      ov.join(p, net::OverlayId(rng.uniform()));
    } else {
      late.push_back(p);
    }
  }
  ov.rebuild_ring();
  // Settle first, so most create_links calls have something to skip.
  for (int round = 0; round < 6; ++round) sys.run_round();
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 20; ++i) {
      const auto a = static_cast<PeerId>(rng.below(n));
      const auto friends = g.neighbors(a);
      if (friends.empty()) continue;
      const PeerId b = friends[rng.below(friends.size())];
      if (rng.chance(0.5)) {
        // Within the K budgets, so only the gates can trip a check.
        if (ov.out_degree(a) < sys.k() && ov.in_degree(b) < sys.k()) {
          ov.add_long_link(a, b);
        }
      } else if (ov.out_degree(a) > 0) {
        ov.remove_long_link(a, ov.out_links(a)[rng.below(ov.out_degree(a))]);
      }
    }
    for (int j = 0; j < 10 && !late.empty(); ++j) {
      ov.join(late.back(), net::OverlayId(rng.uniform()));
      late.pop_back();
    }
    ov.rebuild_ring();
    sys.run_round();
  }
  ASSERT_TRUE(capture.empty()) << capture.violations().front().invariant
                               << ": " << capture.violations().front().detail;
}

// relink reads relinked_at before its own link changes, so a run that
// changed a link leaves its peer not current and the next create_links
// recomputes. Reading it after the changes would hide them from the gate.
TEST(SelectGatedRecompute, ChangingRelinkLeavesItsPeerNotCurrent) {
  const auto g = fb_graph(300, 21);
  SelectSystem sys(g, SelectParams{}, 21);
  sys.build();
  auto& ov = sys.overlay();
  const auto n = static_cast<PeerId>(g.num_nodes());
  PeerId p = 0;
  while (p < n && ov.out_degree(p) == 0) ++p;
  ASSERT_LT(p, n);
  // Only p takes part in the next rounds: with every other peer offline no
  // gossip exchange or other relink moves a version after p's relink.
  for (PeerId q = 0; q < n; ++q) {
    if (q != p) sys.set_peer_online(q, false);
  }
  sys.run_round();
  sys.run_round();
  ASSERT_TRUE(sys.links_current(p));

  ov.remove_long_link(p, ov.out_links(p).front());
  EXPECT_FALSE(sys.links_current(p));
  const std::uint64_t before = ov.link_version(p);
  sys.run_round();
  ASSERT_GT(ov.link_version(p), before) << "relink(p) changed no link";
  EXPECT_FALSE(sys.links_current(p))
      << "a relink that changed a link left its peer current";
  sys.run_round();  // the recompute finds nothing left to change
  EXPECT_TRUE(sys.links_current(p));
}

// -- pinned behaviour fingerprints ---------------------------------------
//
// Construction recomputes its derived state (friendship bitmaps, L_p
// snapshots, LSH indexes) only when the inputs changed. A skip that is not
// exact shows up as a different overlay, so these fingerprints were printed
// by the implementation that recomputed everything on every call and are
// pinned here: they must never change.

/// Order-sensitive 64-bit hash of the overlay state: ids by bit pattern,
/// sorted out-links, sorted in-links and every lookahead snapshot.
std::uint64_t overlay_fingerprint(const SelectSystem& sys) {
  std::uint64_t h = 0x5e1ec7f1a9e5ULL;
  auto mix = [&h](std::uint64_t v) { h = splitmix64(h ^ v); };
  auto mix_sorted = [&mix](std::span<const PeerId> peers) {
    std::vector<PeerId> sorted(peers.begin(), peers.end());
    std::sort(sorted.begin(), sorted.end());
    mix(sorted.size());
    for (const PeerId q : sorted) mix(q);
  };
  const auto& ov = sys.overlay();
  for (PeerId p = 0; p < ov.num_peers(); ++p) {
    mix(p);
    mix(std::bit_cast<std::uint64_t>(ov.id(p).value()));
    mix_sorted(ov.out_links(p));
    mix_sorted(ov.in_links(p));
    mix(sys.lookahead().has_snapshot(p) ? 1 : 0);
    mix_sorted(sys.lookahead().snapshot(p));
  }
  return h;
}

/// Seeded churn through the public API only: peers toggle offline and back,
/// maintenance repairs, further gossip rounds relink.
void churn_script(SelectSystem& sys, std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0xc4u));
  const auto n = static_cast<PeerId>(sys.num_peers());
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (PeerId p = 0; p < n; ++p) {
      if (rng.uniform() < 0.1) sys.set_peer_online(p, !sys.peer_online(p));
    }
    sys.maintenance_round();
    sys.run_round();
    sys.run_round();
  }
  for (PeerId p = 0; p < n; ++p) sys.set_peer_online(p, true);
  sys.maintenance_round();
  sys.run_round();
}

struct PinnedFingerprint {
  const char* profile;
  std::size_t n;
  std::uint64_t seed;
  std::uint64_t after_build;
  std::uint64_t after_churn;
};

void PrintTo(const PinnedFingerprint& pin, std::ostream* os) {
  *os << pin.profile << " n=" << pin.n << " seed=" << pin.seed;
}

class SelectFingerprint : public ::testing::TestWithParam<PinnedFingerprint> {};

TEST_P(SelectFingerprint, BuildAndChurnMatchPinnedValues) {
  const auto& pin = GetParam();
  const auto g = graph::make_dataset_graph(graph::profile_by_name(pin.profile),
                                           pin.n, pin.seed);
  SelectSystem sys(g, SelectParams{}, pin.seed);
  sys.build();
  EXPECT_EQ(overlay_fingerprint(sys), pin.after_build)
      << "after build: 0x" << std::hex << overlay_fingerprint(sys);
  churn_script(sys, pin.seed);
  EXPECT_EQ(overlay_fingerprint(sys), pin.after_churn)
      << "after churn: 0x" << std::hex << overlay_fingerprint(sys);
}

std::string pin_name(const ::testing::TestParamInfo<PinnedFingerprint>& info) {
  char name[48];
  std::snprintf(name, sizeof name, "n%zu_seed%llu", info.param.n,
                static_cast<unsigned long long>(info.param.seed));
  return std::string(name);
}

constexpr PinnedFingerprint kFacebook[] = {
    {"facebook", 500, 1, 0x5398b3b61e551fa6ULL, 0x85fe1b676111e95eULL},
    {"facebook", 500, 2, 0x69a253a5d46c4ca8ULL, 0xdb38f6882af05dafULL},
    {"facebook", 500, 3, 0x291a4dcedf5d312aULL, 0xdeed9b56d4acb5feULL},
    {"facebook", 2000, 1, 0x11fd287c08758b49ULL, 0x47a2f172c953e52cULL},
    {"facebook", 2000, 2, 0xcdf9b2faef061efaULL, 0x3d977581effdbeceULL},
    {"facebook", 2000, 3, 0x0485ad4e9d993ae6ULL, 0xe53de7081f2f4da9ULL},
};

// Dense profiles put most peers where facebook puts only its hubs: bitmaps
// wider than one word (degree > 64), many bitmap recomputes per exchange and
// multi-pass greedy top-ups. Each case runs to the max_rounds cap (128).
constexpr PinnedFingerprint kGplus[] = {
    {"gplus", 100, 1, 0x6911716277abe65bULL, 0xbdd8a3b6513d24e9ULL},
    {"gplus", 100, 2, 0x2d6c286e835b1ebcULL, 0x37273fad371e041eULL},
};

constexpr PinnedFingerprint kTwitter[] = {
    {"twitter", 100, 1, 0x3765e8c8b2766cf3ULL, 0xf766d87af069132fULL},
    {"twitter", 100, 2, 0xab689f7b2ccaddbaULL, 0x99f60e8c29491896ULL},
};

INSTANTIATE_TEST_SUITE_P(Facebook, SelectFingerprint,
                         ::testing::ValuesIn(kFacebook), pin_name);
INSTANTIATE_TEST_SUITE_P(Gplus, SelectFingerprint, ::testing::ValuesIn(kGplus),
                         pin_name);
INSTANTIATE_TEST_SUITE_P(Twitter, SelectFingerprint,
                         ::testing::ValuesIn(kTwitter), pin_name);

}  // namespace
}  // namespace sel::core
