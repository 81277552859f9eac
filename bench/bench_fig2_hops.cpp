// Figure 2: average number of hops per social lookup, per data set, as the
// network grows — SELECT vs Symphony, Bayeux, Vitis, OMen.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "pubsub/metrics.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "Figure 2 — hops per social lookup",
      "Fig. 2(a-d): avg hops publisher->subscriber vs network size, 5 systems "
      "x 4 data sets",
      "SELECT stays at 1-2 hops; Symphony grows ~log N; SELECT >=43-85% fewer "
      "hops than every baseline");

  const auto sizes = bench::default_sizes();
  const std::size_t trials = trial_count(2);
  const auto systems = baselines::overlay_names(/*paper_only=*/true);
  CsvWriter csv(bench::output_path("fig2_hops.csv"),
                {"dataset", "n", "system", "hops", "ci95", "success_rate"});

  for (const auto& profile : graph::all_profiles()) {
    std::printf("--- %s ---\n", std::string(profile.name).c_str());
    std::vector<std::string> header{"n"};
    for (const auto& name : systems) header.emplace_back(name);
    TablePrinter table(header);
    for (const std::size_t n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const auto& name : systems) {
        const auto summary = sim::run_trials(
            trials, derive_seed(0xF16'2, n),
            [&](std::uint64_t seed) {
              const auto g = graph::make_dataset_graph(profile, n, seed);
              auto ov = baselines::make_overlay(name, g, {.seed = seed});
              ov->build();
              const auto hops = pubsub::measure_hops(*ov, 300, seed);
              return sim::MetricMap{
                  {"hops", hops.hops.mean()},
                  {"success", hops.success_rate()},
              };
            });
        row.push_back(fmt(summary.mean("hops")));
        csv.row(std::vector<std::string>{
            std::string(profile.name), std::to_string(n), name,
            fmt(summary.mean("hops"), 4), fmt(summary.ci95("hops"), 4),
            fmt(summary.mean("success"), 4)});
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf("wrote %s\n", csv.path().c_str());
  bench::write_run_report("fig2_hops", csv.path());
  return 0;
}
