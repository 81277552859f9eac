// Figure 3: average number of relay nodes per pub/sub routing path, per
// data set — SELECT vs Symphony, Bayeux, Vitis, OMen.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "pubsub/metrics.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "Figure 3 — relay nodes per pub/sub routing path",
      "Fig. 3(a-d): avg relay nodes publisher->subscriber vs network size",
      "SELECT near zero (>=89-98% reduction); Bayeux worst (rendezvous "
      "trees); Symphony/Vitis in between");

  const auto sizes = bench::default_sizes();
  const std::size_t trials = trial_count(2);
  CsvWriter csv(bench::output_path("fig3_relays.csv"),
                {"dataset", "n", "system", "relays_per_path",
                 "relays_per_tree", "coverage"});

  const auto systems = baselines::overlay_names(/*paper_only=*/true);
  for (const auto& profile : graph::all_profiles()) {
    std::printf("--- %s ---\n", std::string(profile.name).c_str());
    std::vector<std::string> header{"n"};
    for (const auto& name : systems) header.emplace_back(name);
    TablePrinter table(header);
    for (const std::size_t n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const auto& name : systems) {
        const auto summary = sim::run_trials(
            trials, derive_seed(0xF16'3, n),
            [&](std::uint64_t seed) {
              const auto g = graph::make_dataset_graph(profile, n, seed);
              auto ov = baselines::make_overlay(name, g, {.seed = seed});
              ov->build();
              const auto publishers =
                  bench::workload_publishers(g, 25, seed);
              const auto relays = pubsub::measure_relays(
                  overlay::PubSubSystem(*ov), publishers);
              return sim::MetricMap{
                  {"per_path", relays.relays_per_path.mean()},
                  {"per_tree", relays.relays_per_tree.mean()},
                  {"coverage", relays.coverage.mean()},
              };
            });
        row.push_back(fmt(summary.mean("per_path")));
        csv.row(std::vector<std::string>{
            std::string(profile.name), std::to_string(n), name,
            fmt(summary.mean("per_path"), 4),
            fmt(summary.mean("per_tree"), 4),
            fmt(summary.mean("coverage"), 4)});
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf("wrote %s\n", csv.path().c_str());
  bench::write_run_report("fig3_relays", csv.path());
  return 0;
}
