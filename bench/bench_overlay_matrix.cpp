// Overlay comparison matrix: every overlay in the factory table — SELECT,
// the four paper baselines, the random-mesh control, the socially-aware DHT
// and centrality-weighted SELECT — measured through the one
// `overlay::Overlay` interface on the same graph and workload.
//
// Columns per system:
//   build_ms     wall time to construct the overlay (instrumentation only)
//   iters        convergence iterations (0 = non-iterative construction)
//   hops / ci95  social-lookup hop count (Fig. 2 metric)
//   success      fraction of lookups delivered
//   relays/path  relay ratio: non-subscriber intermediates per path (Fig. 3)
//   coverage     subscribers reached per dissemination tree
//   stretch      routed hops / BFS shortest path over the overlay's own
//                links — 1.0 means greedy routing is optimal on its topology
//   avail@churn  delivery availability with 20% of peers offline after
//                maintenance rounds (Fig. 6 condition)
//
// Adding an overlay to the factory table adds a row here; no harness edits.
#include <queue>

#include "baselines/factory.hpp"
#include "bench/bench_common.hpp"
#include "obs/time.hpp"
#include "pubsub/metrics.hpp"

namespace {

using sel::overlay::kInvalidPeer;
using sel::overlay::Overlay;
using sel::overlay::PeerId;

/// BFS hop distance from `src` to `dst` over the overlay's link graph
/// (neighbors() closure), or 0 when unreachable. The denominator of the
/// stretch metric: the best any routing scheme could do on this topology.
std::size_t bfs_hops(const Overlay& ov, PeerId src, PeerId dst) {
  if (src == dst) return 0;
  const std::size_t n = ov.num_peers();
  std::vector<std::uint32_t> dist(n, 0);
  std::vector<bool> seen(n, false);
  std::queue<PeerId> frontier;
  frontier.push(src);
  seen[src] = true;
  while (!frontier.empty()) {
    const PeerId u = frontier.front();
    frontier.pop();
    bool found = false;
    ov.for_each_neighbor(u, [&](PeerId v) {
      if (v >= n || seen[v] || found) return;
      seen[v] = true;
      dist[v] = dist[u] + 1;
      if (v == dst) {
        found = true;
        return;
      }
      frontier.push(v);
    });
    if (seen[dst]) return dist[dst];
  }
  return 0;
}

struct StretchResult {
  sel::RunningStats stretch;
  std::size_t probes = 0;
};

/// Routes sampled (publisher, friend) pairs and divides the routed hop
/// count by the BFS distance over the same links.
StretchResult measure_stretch(const Overlay& ov, std::size_t pairs,
                              std::uint64_t seed) {
  StretchResult out;
  const auto& g = ov.social();
  sel::Rng rng(sel::derive_seed(seed, 0x57E7C4));
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto src = static_cast<PeerId>(rng.below(g.num_nodes()));
    const auto& friends = g.neighbors(src);
    if (friends.empty()) continue;
    const PeerId dst = friends[rng.below(friends.size())];
    ++out.probes;
    const auto route = ov.route(src, dst);
    if (!route.success) continue;
    const std::size_t shortest = bfs_hops(ov, src, dst);
    if (shortest == 0) continue;  // unreachable on links: routed via luck
    out.stretch.add(static_cast<double>(route.hops()) /
                    static_cast<double>(shortest));
  }
  return out;
}

}  // namespace

int main() {
  using namespace sel;
  bench::print_banner(
      "overlay matrix — every overlay, one interface",
      "comparison platform for SELECT vs structured-overlay baselines",
      "SELECT: ~1-2 hops, relay ratio ~0, stretch ~1; DHTs: log-N hops, "
      "relay-heavy");

  const std::size_t n = scaled(600, 150);
  const std::uint64_t seed = 0x0E11A7;
  const std::size_t lookups = scaled(250, 60);
  const std::size_t stretch_pairs = scaled(60, 20);
  const double churn_fraction = 0.2;

  const auto g = graph::make_dataset_graph(graph::profile_by_name("facebook"),
                                           n, seed);
  const auto publishers = bench::workload_publishers(g, 15, seed);

  CsvWriter csv(bench::output_path("overlay_matrix.csv"),
                {"system", "build_ms", "iterations", "hops", "hops_ci95",
                 "success_rate", "relays_per_path", "coverage", "stretch",
                 "avail_churn"});
  TablePrinter table({"system", "build_ms", "iters", "hops", "success",
                      "relays/path", "coverage", "stretch", "avail@churn"});

  auto& metrics = obs::MetricsRegistry::global();
  const auto names = baselines::overlay_names();
  std::printf("overlays: %zu\n\n", names.size());

  for (const auto& name : names) {
    auto ov = baselines::make_overlay(name, g, {.seed = seed});

    const auto t0 = obs::wall_now();
    ov->build();
    const double build_ms = obs::ms_between(t0, obs::wall_now());

    const overlay::PubSubSystem ps(*ov);
    const auto hops = pubsub::measure_hops(*ov, lookups, seed);
    const auto relays = pubsub::measure_relays(ps, publishers);
    const auto stretch = measure_stretch(*ov, stretch_pairs, seed);

    // Churn phase: knock a fixed fraction offline, let the overlay mend
    // itself, and measure what the trees still deliver.
    Rng churn_rng(derive_seed(seed, 0xC0DE));
    for (PeerId p = 0; p < n; ++p) {
      if (churn_rng.chance(churn_fraction)) ov->set_peer_online(p, false);
    }
    const std::size_t maintenance_rounds = 3;
    for (std::size_t r = 0; r < maintenance_rounds; ++r) {
      ov->maintenance_round();
    }
    const double avail = pubsub::measure_availability(ps, publishers)
                             .availability();

    // Per-overlay counter families (pre-registered by make_overlay): the
    // expected report pins these, so the CI smoke job catches routing
    // regressions in any single overlay.
    const std::string prefix = "overlay." + name;
    metrics.counter(prefix + ".routes_attempted")
        .add(static_cast<std::int64_t>(hops.attempted + stretch.probes));
    metrics.counter(prefix + ".routes_ok")
        .add(static_cast<std::int64_t>(hops.delivered +
                                       stretch.stretch.count()));
    metrics.counter(prefix + ".routes_failed")
        .add(static_cast<std::int64_t>((hops.attempted - hops.delivered) +
                                       (stretch.probes -
                                        stretch.stretch.count())));
    metrics.counter(prefix + ".maintenance_rounds")
        .add(static_cast<std::int64_t>(maintenance_rounds));
    metrics.gauge(prefix + ".relay_ratio").set(relays.relays_per_path.mean());
    metrics.gauge(prefix + ".delivery_rate").set(hops.success_rate());
    metrics.gauge(prefix + ".avail_churn").set(avail);

    table.add_row({name, fmt(build_ms, 1),
                   std::to_string(ov->build_iterations()),
                   fmt(hops.hops.mean()),
                   fmt(100.0 * hops.success_rate(), 1) + "%",
                   fmt(relays.relays_per_path.mean(), 3),
                   fmt(100.0 * relays.coverage.mean(), 1) + "%",
                   fmt(stretch.stretch.mean(), 3),
                   fmt(100.0 * avail, 1) + "%"});
    csv.row(std::vector<std::string>{
        name, fmt(build_ms, 3), std::to_string(ov->build_iterations()),
        fmt(hops.hops.mean(), 4), fmt(hops.hops.ci95_halfwidth(), 4),
        fmt(hops.success_rate(), 4), fmt(relays.relays_per_path.mean(), 4),
        fmt(relays.coverage.mean(), 4), fmt(stretch.stretch.mean(), 4),
        fmt(avail, 4)});
  }

  table.print();
  std::printf("\nwrote %s\n", csv.path().c_str());
  bench::write_run_report("overlay_matrix", csv.path(),
                          {{"n", std::to_string(n)},
                           {"seed", std::to_string(seed)},
                           {"overlays", std::to_string(names.size())}});
  return 0;
}
