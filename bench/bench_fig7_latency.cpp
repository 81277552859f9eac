// Figure 7: average latency of data dissemination in the pub/sub routing
// tree (the "realistic" experiments: heterogeneous bandwidth, per-pair
// latency, 1.2 MB payloads, uplink shared across simultaneous transfers).
// Compares SELECT against the random overlay ("without selection
// algorithm") and the full baseline set.
//
// Latencies come from the closed-form tree walk of
// pubsub::measure_latency.
#include "bench/bench_common.hpp"
#include "baselines/factory.hpp"
#include "pubsub/metrics.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "Figure 7 — dissemination latency (realistic experiments)",
      "Fig. 7(a-d): avg latency of 1.2MB payload dissemination vs network "
      "size, random overlay vs SELECT (plus the other baselines)",
      "random overlay latency grows steeply with size; SELECT grows slowly "
      "(~linear), staying latency-aware");

  const auto sizes = bench::default_sizes();
  const std::size_t trials = trial_count(2);
  const char* systems[] = {"random", "select", "symphony", "bayeux", "vitis",
                           "omen"};
  CsvWriter csv(bench::output_path("fig7_latency.csv"),
                {"dataset", "n", "system", "tree_latency_s",
                 "subscriber_latency_s"});

  for (const auto& profile : graph::all_profiles()) {
    std::printf("--- %s ---\n", std::string(profile.name).c_str());
    std::vector<std::string> header{"n"};
    for (const auto name : systems) header.emplace_back(name);
    TablePrinter table(header);
    for (const std::size_t n : sizes) {
      std::vector<std::string> row{std::to_string(n)};
      for (const auto name : systems) {
        const auto summary = sim::run_trials(
            trials, derive_seed(0xF16'7, n),
            [&](std::uint64_t seed) {
              const auto g = graph::make_dataset_graph(profile, n, seed);
              net::NetworkModel net(g.num_nodes(), seed);
              auto ov = baselines::make_overlay(name, g,
                                                {.seed = seed, .net = &net});
              ov->build();
              const auto publishers =
                  bench::workload_publishers(g, 15, seed);
              const auto latency = pubsub::measure_latency(
                  overlay::PubSubSystem(*ov), net, publishers);
              return sim::MetricMap{
                  {"tree_s", latency.per_tree_s.mean()},
                  {"sub_s", latency.per_subscriber_s.mean()},
              };
            });
        row.push_back(fmt(summary.mean("tree_s")) + "s");
        csv.row(std::vector<std::string>{
            std::string(profile.name), std::to_string(n), std::string(name),
            fmt(summary.mean("tree_s"), 4), fmt(summary.mean("sub_s"), 4)});
      }
      table.add_row(std::move(row));
    }
    table.print();
    std::printf("\n");
  }
  std::printf("wrote %s\n", csv.path().c_str());
  bench::write_run_report("fig7_latency", csv.path());
  return 0;
}
