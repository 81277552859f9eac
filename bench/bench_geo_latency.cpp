// Extension bench (paper Sec. V Discussion): "a geographically distributed
// study would augment our findings." Peers are spread over regions with an
// inter-region latency penalty; we compare dissemination latency of SELECT
// vs the random overlay as the penalty grows, and split SELECT's tree edges
// into intra- vs inter-region hops.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "geo latency — geographically distributed peers",
      "Sec. V (Discussion): geographic distribution study (future work)",
      "inter-region penalties inflate the random overlay's latency much "
      "faster than SELECT's (social clusters correlate with regions only "
      "weakly, but shorter trees mean fewer crossings)");

  const std::size_t n = scaled(600, 150);
  const std::size_t trials = trial_count(2);
  const auto& profile = graph::profile_by_name("facebook");
  CsvWriter csv(bench::output_path("geo_latency.csv"),
                {"inter_region_ms", "system", "tree_latency_s",
                 "inter_region_edge_fraction"});
  TablePrinter table({"extra ms", "system", "tree latency (s)",
                      "inter-region edges"});

  for (const double extra_ms : {0.0, 40.0, 120.0, 240.0}) {
    for (const auto name : {"select", "random"}) {
      const auto summary = sim::run_trials(
          trials,
          derive_seed(0x3e0, static_cast<std::uint64_t>(extra_ms) + 7),
          [&](std::uint64_t seed) {
            const auto g = graph::make_dataset_graph(profile, n, seed);
            net::NetworkModel net(
                g.num_nodes(), seed, net::default_bandwidth_mix(), 40.0, 0.5,
                net::GeoParams{.regions = 6,
                               .inter_region_extra_ms = extra_ms});
            auto ov = baselines::make_overlay(name, g,
                                              {.seed = seed, .net = &net});
            ov->build();
            const overlay::PubSubSystem ps(*ov);
            const auto publishers = bench::workload_publishers(g, 12, seed);
            const auto latency = pubsub::measure_latency(ps, net, publishers);
            // Fraction of tree edges crossing regions.
            std::size_t cross = 0;
            std::size_t edges = 0;
            for (const auto b : publishers) {
              const auto tree = ps.build_tree(b);
              for (const auto node : tree.nodes()) {
                for (const auto child : tree.children(node)) {
                  ++edges;
                  if (net.region_of(node) != net.region_of(child)) ++cross;
                }
              }
            }
            return sim::MetricMap{
                {"tree_s", latency.per_tree_s.mean()},
                {"cross",
                 edges == 0 ? 0.0
                            : static_cast<double>(cross) /
                                  static_cast<double>(edges)},
            };
          });
      table.add_row({fmt(extra_ms, 0), std::string(name),
                     fmt(summary.mean("tree_s")),
                     fmt(100.0 * summary.mean("cross"), 1) + "%"});
      csv.row(std::vector<std::string>{
          fmt(extra_ms, 0), std::string(name), fmt(summary.mean("tree_s"), 4),
          fmt(summary.mean("cross"), 4)});
    }
  }
  table.print();
  std::printf("\nwrote %s\n", csv.path().c_str());
  bench::write_run_report("geo_latency", csv.path());
  return 0;
}
