// Structure-vs-degree ablation: is SELECT's advantage due to the *social
// structure* (clustering, communities) or merely the degree sequence?
//
// We run SELECT and Symphony on (a) the Facebook-profile graph and (b) a
// degree-preserving randomization of it (configuration-model null: same
// degrees, clustering destroyed). If SELECT's relay/hops wins survived the
// rewiring they would be degree artifacts; they should instead shrink
// substantially, because the LSH bucket coverage and the subscriber mesh
// both feed on shared neighbourhoods.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "pubsub/metrics.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "structure ablation — social graph vs degree-matched random graph",
      "design-choice analysis (DESIGN.md §6): why the social structure "
      "matters",
      "SELECT's relay advantage shrinks on the rewired graph; hops/relays "
      "rise toward Symphony's");

  const std::size_t n = scaled(800, 200);
  const std::size_t trials = trial_count(2);
  const auto& profile = graph::profile_by_name("facebook");
  CsvWriter csv(bench::output_path("structure_ablation.csv"),
                {"graph", "system", "clustering", "hops", "relays_per_path"});
  TablePrinter table(
      {"graph", "system", "clustering", "hops", "relays/path"});

  for (const bool rewired : {false, true}) {
    for (const auto name : {"select", "symphony"}) {
      const auto summary = sim::run_trials(
          trials, derive_seed(0x57ab, rewired ? 1 : 0),
          [&](std::uint64_t seed) {
            auto g = graph::make_dataset_graph(profile, n, seed);
            if (rewired) {
              g = graph::degree_preserving_rewire(g, 10.0, seed);
            }
            const double clustering = graph::clustering_coefficient(
                g, std::min<std::size_t>(n, 400), seed);
            auto ov = baselines::make_overlay(name, g, {.seed = seed});
            ov->build();
            const auto hops = pubsub::measure_hops(*ov, 250, seed);
            const auto publishers = bench::workload_publishers(g, 20, seed);
            const auto relays = pubsub::measure_relays(
                overlay::PubSubSystem(*ov), publishers);
            return sim::MetricMap{
                {"clustering", clustering},
                {"hops", hops.hops.mean()},
                {"relays", relays.relays_per_path.mean()},
            };
          });
      const char* graph_label = rewired ? "rewired" : "social";
      table.add_row({graph_label, std::string(name),
                     fmt(summary.mean("clustering"), 3),
                     fmt(summary.mean("hops")),
                     fmt(summary.mean("relays"), 3)});
      csv.row(std::vector<std::string>{
          graph_label, std::string(name), fmt(summary.mean("clustering"), 4),
          fmt(summary.mean("hops"), 4), fmt(summary.mean("relays"), 4)});
    }
  }
  table.print();
  std::printf("\nwrote %s\n", csv.path().c_str());
  bench::write_run_report("structure_ablation", csv.path());
  return 0;
}
