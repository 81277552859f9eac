// Figure 5: number of iterations required to construct the overlay.
// Symphony and Bayeux are excluded (non-iterative), exactly as in the paper.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "Figure 5 — iterations to construct the overlay",
      "Fig. 5: convergence iterations, SELECT vs Vitis vs OMen (Symphony/"
      "Bayeux excluded: no iterative process)",
      "SELECT converges in up to ~75% fewer iterations; its links start "
      "social and only need refinement, while Vitis/OMen must discover "
      "structure from random starts");

  std::vector<std::size_t> sizes = bench::default_sizes();
  sizes.push_back(scaled(2000));
  const std::size_t trials = trial_count(2);
  const char* systems[] = {"select", "vitis", "omen"};
  CsvWriter csv(bench::output_path("fig5_convergence.csv"),
                {"dataset", "n", "system", "iterations", "ci95"});

  for (const auto& profile : graph::all_profiles()) {
    std::printf("--- %s ---\n", std::string(profile.name).c_str());
    TablePrinter table({"n", "select", "vitis", "omen"});
    for (const std::size_t n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const auto name : systems) {
        const auto summary = sim::run_trials(
            trials, derive_seed(0xF16'5, n),
            [&](std::uint64_t seed) {
              const auto g = graph::make_dataset_graph(profile, n, seed);
              auto ov = baselines::make_overlay(name, g, {.seed = seed});
              ov->build();
              return sim::MetricMap{
                  {"iters", static_cast<double>(ov->build_iterations())}};
            });
        row.push_back(fmt(summary.mean("iters"), 1));
        csv.row(std::vector<std::string>{
            std::string(profile.name), std::to_string(n), std::string(name),
            fmt(summary.mean("iters"), 2), fmt(summary.ci95("iters"), 2)});
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf("wrote %s\n", csv.path().c_str());
  bench::write_run_report("fig5_convergence", csv.path());
  return 0;
}
