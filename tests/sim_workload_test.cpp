#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"

namespace sel::sim {
namespace {

graph::SocialGraph small_graph() { return graph::holme_kim(200, 3, 0.5, 1); }

std::size_t count_publishers(const PublicationWorkload& w, std::size_t n) {
  std::size_t count = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    if (w.rate_per_s(u) > 0.0) ++count;
  }
  return count;
}

TEST(Workload, AllUsersPublishByDefault) {
  const auto g = small_graph();
  PublicationWorkload w(g, WorkloadParams{}, 2);
  EXPECT_EQ(count_publishers(w, g.num_nodes()), g.num_nodes());
}

TEST(Workload, PublisherFractionRespected) {
  const auto g = small_graph();
  WorkloadParams params;
  params.publisher_fraction = 0.3;
  PublicationWorkload w(g, params, 3);
  const double frac =
      static_cast<double>(count_publishers(w, g.num_nodes())) /
      static_cast<double>(g.num_nodes());
  EXPECT_NEAR(frac, 0.3, 0.12);
}

TEST(Workload, PostsSortedAndWithinHorizon) {
  const auto g = small_graph();
  PublicationWorkload w(g, WorkloadParams{}, 4);
  const auto posts = w.generate(3600.0, 5);
  EXPECT_FALSE(posts.empty());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    EXPECT_GE(posts[i].time_s, 0.0);
    EXPECT_LT(posts[i].time_s, 3600.0);
    if (i > 0) {
      EXPECT_LE(posts[i - 1].time_s, posts[i].time_s);
    }
    EXPECT_LT(posts[i].publisher, g.num_nodes());
  }
}

TEST(Workload, PostCountScalesWithHorizon) {
  const auto g = small_graph();
  PublicationWorkload w(g, WorkloadParams{}, 6);
  const auto short_run = w.generate(1800.0, 7).size();
  const auto long_run = w.generate(7200.0, 7).size();
  EXPECT_GT(long_run, short_run * 2);
}

TEST(Workload, ZeroHorizonIsEmpty) {
  const auto g = small_graph();
  PublicationWorkload w(g, WorkloadParams{}, 8);
  EXPECT_TRUE(w.generate(0.0, 9).empty());
}

TEST(Workload, RatesAreHeavyTailedWithSkew) {
  const auto g = small_graph();
  WorkloadParams params;
  params.rate_skew = 1.2;
  PublicationWorkload w(g, params, 10);
  double max_rate = 0.0;
  double total = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    max_rate = std::max(max_rate, w.rate_per_s(u));
    total += w.rate_per_s(u);
  }
  const double mean = total / static_cast<double>(g.num_nodes());
  EXPECT_GT(max_rate, mean * 5.0);  // a few prolific posters
}

TEST(Workload, SamplePublishersPrefersHighRates) {
  const auto g = small_graph();
  WorkloadParams params;
  params.rate_skew = 1.5;
  PublicationWorkload w(g, params, 11);
  const auto sample = w.sample_publishers(2000, 12);
  ASSERT_EQ(sample.size(), 2000u);
  double sample_rate = 0.0;
  for (const auto u : sample) sample_rate += w.rate_per_s(u);
  sample_rate /= 2000.0;
  double mean_rate = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    mean_rate += w.rate_per_s(u);
  }
  mean_rate /= static_cast<double>(g.num_nodes());
  EXPECT_GT(sample_rate, mean_rate);  // rate-weighted sampling
}

TEST(Workload, Deterministic) {
  const auto g = small_graph();
  PublicationWorkload w1(g, WorkloadParams{}, 13);
  PublicationWorkload w2(g, WorkloadParams{}, 13);
  const auto a = w1.generate(600.0, 14);
  const auto b = w2.generate(600.0, 14);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].publisher, b[i].publisher);
  }
}

TEST(Workload, PoissonCountMatchesRate) {
  // Single-publisher graph: count over horizon ~ rate * horizon.
  graph::GraphBuilder b(1);
  const auto g = b.build();
  WorkloadParams params;
  params.median_posts_per_hour = 60.0;  // 1 per minute
  params.rate_skew = 0.0;               // no multiplier
  PublicationWorkload w(g, params, 15);
  const auto posts = w.generate(3600.0 * 20, 16);
  EXPECT_NEAR(static_cast<double>(posts.size()), 1200.0, 150.0);
}

}  // namespace
}  // namespace sel::sim
