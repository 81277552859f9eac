// Property sweeps (TEST_P) over dataset profile x network size x seed:
// protocol invariants that must hold for every configuration.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "baselines/factory.hpp"
#include "graph/profiles.hpp"
#include "overlay/system.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

namespace sel {
namespace {

using overlay::PeerId;

// Profile and system names are std::string, not const char*: gtest prints a
// char pointer's address into the test id, which would change with every
// build (and every run under ASLR).
using Config = std::tuple<std::string, std::size_t, std::uint64_t>;

class SelectInvariants : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const auto& [profile, n, seed] = GetParam();
    graph_ = graph::make_dataset_graph(graph::profile_by_name(profile), n,
                                       seed);
    sys_ = std::make_unique<core::SelectSystem>(graph_, core::SelectParams{},
                                                seed);
    sys_->build();
  }

  graph::SocialGraph graph_;
  std::unique_ptr<core::SelectSystem> sys_;
};

TEST_P(SelectInvariants, DegreeBudgetsHold) {
  for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
    EXPECT_LE(sys_->overlay().out_degree(p), sys_->k());
    EXPECT_LE(sys_->overlay().in_degree(p), sys_->k());
  }
}

TEST_P(SelectInvariants, LinksAreAlwaysSocial) {
  for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
    for (const PeerId q : sys_->overlay().out_links(p)) {
      ASSERT_TRUE(graph_.has_edge(p, q));
    }
  }
}

TEST_P(SelectInvariants, LinkSymmetryHolds) {
  for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
    for (const PeerId q : sys_->overlay().out_links(p)) {
      const auto ins = sys_->overlay().in_links(q);
      ASSERT_NE(std::find(ins.begin(), ins.end(), p), ins.end());
    }
  }
}

TEST_P(SelectInvariants, AllSocialLookupsDeliver) {
  const auto hops = pubsub::measure_hops(*sys_, 150, 99);
  EXPECT_DOUBLE_EQ(hops.success_rate(), 1.0);
  EXPECT_LT(hops.hops.mean(), 4.0);
}

TEST_P(SelectInvariants, TreesCoverSubscribers) {
  std::vector<PeerId> publishers;
  for (std::size_t i = 0; i < 8; ++i) {
    publishers.push_back(
        static_cast<PeerId>(i * 41 % graph_.num_nodes()));
  }
  const auto relays = pubsub::measure_relays(overlay::PubSubSystem(*sys_), publishers);
  EXPECT_GT(relays.coverage.mean(), 0.98);
}

TEST_P(SelectInvariants, InvariantsSurviveChurnAndRecovery) {
  Rng rng(1234);
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
      if (rng.chance(0.2)) sys_->set_peer_online(p, false);
    }
    sys_->maintenance_round();
    for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
      ASSERT_LE(sys_->overlay().out_degree(p), sys_->k());
      for (const PeerId q : sys_->overlay().out_links(p)) {
        ASSERT_TRUE(graph_.has_edge(p, q));
      }
    }
    for (PeerId p = 0; p < graph_.num_nodes(); ++p) {
      sys_->set_peer_online(p, true);
    }
    sys_->maintenance_round();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesSizesSeeds, SelectInvariants,
    ::testing::Values(Config{"facebook", 200, 1}, Config{"facebook", 450, 2},
                      Config{"twitter", 300, 3}, Config{"slashdot", 350, 4},
                      Config{"gplus", 250, 5}, Config{"slashdot", 200, 6}));

class BaselineInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(BaselineInvariants, BuildRouteAndChurnHooks) {
  const auto& [name, seed] = GetParam();
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 300, seed);
  auto ov = baselines::make_overlay(name, g, {.seed = seed});
  ov->build();
  const auto hops = pubsub::measure_hops(*ov, 100, seed);
  EXPECT_GT(hops.success_rate(), 0.9) << name;
  // Churn hooks must be consistent.
  ov->set_peer_online(3, false);
  EXPECT_FALSE(ov->peer_online(3));
  ov->set_peer_online(3, true);
  EXPECT_TRUE(ov->peer_online(3));
  ov->maintenance_round();  // must not crash for any system
}

INSTANTIATE_TEST_SUITE_P(
    Systems, BaselineInvariants,
    ::testing::Combine(::testing::Values("select", "symphony", "bayeux",
                                         "vitis", "omen", "random"),
                       ::testing::Values(1ULL, 2ULL)));

}  // namespace
}  // namespace sel
