// dataset_runner: run any system on any dataset and print the paper's
// metric suite — a one-command evaluation driver.
//
//   $ ./dataset_runner [--dataset facebook|twitter|slashdot|gplus]
//                      [--system select|symphony|bayeux|vitis|omen|random]
//                      [--users N] [--seed S] [--interest P]
//                      [--snap /path/to/edgelist.txt] [--save overlay.ov]
//
// With --snap, a real SNAP edge list replaces the synthetic profile. With
// --save (ring-based systems only), the built overlay snapshot is written
// for later analysis.
#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/factory.hpp"
#include "graph/metrics.hpp"
#include "graph/profiles.hpp"
#include "graph/snap_loader.hpp"
#include "overlay/serialize.hpp"
#include "pubsub/interest.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"
#include "sim/workload.hpp"

namespace {

const char* flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sel;
  const std::string dataset = flag_value(argc, argv, "--dataset", "facebook");
  const std::string system = flag_value(argc, argv, "--system", "select");
  const std::size_t n =
      std::strtoull(flag_value(argc, argv, "--users", "1000"), nullptr, 10);
  const std::uint64_t seed =
      std::strtoull(flag_value(argc, argv, "--seed", "42"), nullptr, 10);
  const double interest_p =
      std::strtod(flag_value(argc, argv, "--interest", "1.0"), nullptr);
  const char* snap_path = flag_value(argc, argv, "--snap", "");
  const char* save_path = flag_value(argc, argv, "--save", "");

  graph::SocialGraph g;
  if (snap_path[0] != '\0') {
    const auto loaded = graph::load_snap_edge_list(snap_path);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "failed to load SNAP edge list: %s\n", snap_path);
      return 1;
    }
    g = loaded->graph;
    std::printf("loaded %s: %zu users, %zu edges\n", snap_path, g.num_nodes(),
                g.num_edges());
  } else {
    g = graph::make_dataset_graph(graph::profile_by_name(dataset), n, seed);
    std::printf("%s profile: %zu users, %zu edges (avg degree %.1f, "
                "clustering %.3f)\n",
                dataset.c_str(), g.num_nodes(), g.num_edges(),
                g.average_degree(),
                graph::clustering_coefficient(
                    g, std::min<std::size_t>(g.num_nodes(), 500), seed));
  }

  net::NetworkModel net(g.num_nodes(), seed);
  auto ov = baselines::make_overlay(system, g, {.seed = seed, .net = &net});
  std::printf("building %s overlay...\n", std::string(ov->name()).c_str());
  ov->build();
  if (ov->build_iterations() > 0) {
    std::printf("converged in %zu iterations\n", ov->build_iterations());
  }

  overlay::PubSubSystem ps(*ov);
  pubsub::InterestModel interest(interest_p, seed);
  if (interest_p < 1.0) {
    ps.set_interest_function(&interest);
    std::printf("interest function active: f(s,b)=true with p=%.2f\n",
                interest_p);
  }

  const auto hops = pubsub::measure_hops(*ov, 500, seed);
  sim::PublicationWorkload workload(g, sim::WorkloadParams{}, seed);
  const auto pubs64 = workload.sample_publishers(30, seed + 1);
  std::vector<overlay::PeerId> publishers(pubs64.begin(), pubs64.end());
  const auto relays = pubsub::measure_relays(ps, publishers);
  const auto load = pubsub::measure_load(ps, publishers);
  const auto latency = pubsub::measure_latency(ps, net, publishers);

  std::printf("\nmetrics (%zu social lookups, %zu publishers):\n",
              hops.attempted, publishers.size());
  std::printf("  hops/lookup          %.2f (%.1f%% delivered)\n",
              hops.hops.mean(), 100.0 * hops.success_rate());
  std::printf("  relays/path          %.3f\n", relays.relays_per_path.mean());
  std::printf("  relays/tree          %.2f\n", relays.relays_per_tree.mean());
  std::printf("  subscriber coverage  %.1f%%\n",
              100.0 * relays.coverage.mean());
  std::printf("  relay traffic share  %.1f%%\n",
              100.0 * load.relay_forward_share);
  std::printf("  top-degree-10%% load  %.1f%%\n", load.top_decile_share);
  std::printf("  tree latency         %.2fs avg\n", latency.per_tree_s.mean());

  if (save_path[0] != '\0') {
    const auto* ring = dynamic_cast<const overlay::RingOverlay*>(ov.get());
    if (ring == nullptr) {
      std::fprintf(stderr, "--save: %s is not a ring-based system\n",
                   system.c_str());
    } else if (overlay::save_overlay_file(ring->overlay(), save_path)) {
      std::printf("overlay snapshot written to %s\n", save_path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", save_path);
    }
  }
  return 0;
}
