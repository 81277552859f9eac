#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/metrics.hpp"
#include "graph/profiles.hpp"

namespace sel::graph {
namespace {

// Plain Barabási–Albert attachment is Holme–Kim with triad_p = 0.
TEST(BarabasiAlbert, NodeAndEdgeCounts) {
  const std::size_t n = 1000;
  const std::size_t m = 3;
  const SocialGraph g = holme_kim(n, m, 0.0, 11);
  EXPECT_EQ(g.num_nodes(), n);
  // Seed clique of m+1 nodes plus m edges per remaining node.
  const std::size_t expected = m * (m + 1) / 2 + (n - m - 1) * m;
  EXPECT_EQ(g.num_edges(), expected);
}

TEST(BarabasiAlbert, MinimumDegreeIsM) {
  const SocialGraph g = holme_kim(500, 4, 0.0, 13);
  for (NodeId u = 0; u < g.num_nodes(); ++u) EXPECT_GE(g.degree(u), 4u);
}

TEST(BarabasiAlbert, ProducesHubs) {
  const SocialGraph g = holme_kim(2000, 3, 0.0, 17);
  EXPECT_GT(g.max_degree(), 50u);  // heavy tail
}

TEST(BarabasiAlbert, IsConnected) {
  const SocialGraph g = holme_kim(1000, 2, 0.0, 19);
  EXPECT_EQ(connected_components(g), 1u);
}

TEST(HolmeKim, TriadClosureRaisesClustering) {
  const double c_ba =
      clustering_coefficient(holme_kim(1500, 4, 0.0, 23), 600, 1);
  const double c_hk =
      clustering_coefficient(holme_kim(1500, 4, 0.9, 23), 600, 1);
  EXPECT_GT(c_hk, c_ba * 2.0);
  EXPECT_GT(c_hk, 0.1);
}

TEST(HolmeKim, Deterministic) {
  const SocialGraph a = holme_kim(400, 3, 0.5, 29);
  const SocialGraph b = holme_kim(400, 3, 0.5, 29);
  for (NodeId u = 0; u < 400; ++u) EXPECT_EQ(a.degree(u), b.degree(u));
}

TEST(HolmeKim, PowerlawExponentInRealisticRange) {
  const SocialGraph g = holme_kim(4000, 5, 0.5, 31);
  const double alpha = powerlaw_alpha(g, 6);
  EXPECT_GT(alpha, 1.8);
  EXPECT_LT(alpha, 4.5);
}

// Table II profiles: generated structure matches the published statistics.
class ProfileSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileSweep, AverageDegreeTracksTableII) {
  const auto& profile = profile_by_name(GetParam());
  const SocialGraph g = make_dataset_graph(profile, 2500, 3);
  // Generated average degree ~ 2m; it should be within 40% of the paper's
  // value (the generator trades exactness for structure).
  EXPECT_NEAR(g.average_degree(), profile.paper_avg_degree,
              profile.paper_avg_degree * 0.4);
}

TEST_P(ProfileSweep, GraphIsUsable) {
  const auto& profile = profile_by_name(GetParam());
  const SocialGraph g = make_dataset_graph(profile, 600, 5);
  EXPECT_EQ(g.num_nodes(), 600u);
  EXPECT_EQ(connected_components(g), 1u);
  EXPECT_GT(clustering_coefficient(g, 300, 1), 0.02);
}

INSTANTIATE_TEST_SUITE_P(TableII, ProfileSweep,
                         ::testing::Values("facebook", "twitter", "slashdot",
                                           "gplus"));

TEST(Profiles, AllProfilesHaveFourEntries) {
  EXPECT_EQ(all_profiles().size(), 4u);
}

TEST(Profiles, TinyGraphClampsM) {
  const auto& gplus = profile_by_name("gplus");  // gen_m = 63
  const SocialGraph g = make_dataset_graph(gplus, 40, 1);
  EXPECT_EQ(g.num_nodes(), 40u);  // would abort without clamping
}

}  // namespace
}  // namespace sel::graph
