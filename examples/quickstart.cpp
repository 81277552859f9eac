// Quickstart: build a small synthetic social network, run SELECT to
// convergence, and publish a notification — printing what the paper's
// metrics look like on it.
//
//   $ ./quickstart [num_users]
#include <cstdio>
#include <cstdlib>

#include "baselines/factory.hpp"
#include "graph/profiles.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  const std::uint64_t seed = 42;

  // 1. A Facebook-like social graph.
  const auto& profile = sel::graph::profile_by_name("facebook");
  const sel::graph::SocialGraph g =
      sel::graph::make_dataset_graph(profile, n, seed);
  std::printf("social graph: %zu users, %zu friendships (avg degree %.1f)\n",
              g.num_nodes(), g.num_edges(), g.average_degree());

  // 2. Build the SELECT overlay.
  sel::core::SelectSystem select(g, sel::core::SelectParams{}, seed);
  select.build();
  std::printf("SELECT converged in %zu iterations; avg long links/peer %.1f "
              "(K = %zu)\n",
              select.build_iterations(),
              select.overlay().average_long_degree(), select.k());

  // 3. Publish: route a notification from user 0 to every friend. The
  //    dissemination layer composes over any Overlay implementation.
  const sel::overlay::PubSubSystem ps(select);
  const auto tree = ps.build_tree(0);
  const auto subs = ps.subscribers_of(0);
  std::printf("publisher 0 has %zu subscribers; tree reaches %zu nodes, "
              "%zu relay nodes\n",
              subs.size(), tree.node_count() - 1,
              tree.relay_nodes(subs).size());

  // 4. Paper metrics on this overlay.
  const auto hops = sel::pubsub::measure_hops(select, 500, seed);
  std::printf("social lookups: %.2f hops on average (%.0f%% delivered)\n",
              hops.hops.mean(), 100.0 * hops.success_rate());

  // 5. Compare against Symphony on the same workload.
  auto symphony = sel::baselines::make_overlay("symphony", g, {.seed = seed});
  symphony->build();
  const auto sym_hops = sel::pubsub::measure_hops(*symphony, 500, seed);
  std::printf("symphony: %.2f hops on average (%.0f%% delivered)\n",
              sym_hops.hops.mean(), 100.0 * sym_hops.success_rate());
  if (sym_hops.hops.mean() > 0.0) {
    std::printf("SELECT uses %.0f%% fewer hops\n",
                100.0 * (1.0 - hops.hops.mean() / sym_hops.hops.mean()));
  }
  return 0;
}
