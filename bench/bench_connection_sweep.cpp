// Sec. IV-C preliminary: hops vs number of direct connections per peer.
// The paper observes >90% hop reduction as links grow, flattening once the
// link count passes log2(N) — which motivates K = log2(N) everywhere else.
#include "bench/bench_common.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"
#include "sim/trial.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "connection sweep — hops vs direct connections",
      "Sec. IV-C: as direct connections increase, hops drop >90%, with no "
      "further gain past log2(N) links",
      "steep drop then a plateau at K ~ log2 N");

  const std::size_t n = scaled(1000, 200);
  const auto log2n = static_cast<std::size_t>(
      std::log2(static_cast<double>(n)));
  const std::size_t trials = trial_count(2);
  CsvWriter csv(bench::output_path("connection_sweep.csv"), {"k_links", "hops", "success"});

  const auto& profile = graph::profile_by_name("facebook");
  TablePrinter table({"K", "hops", "delivered%"});
  for (std::size_t k = 1; k <= 2 * log2n; k = k < 4 ? k + 1 : k + 2) {
    const auto summary = sim::run_trials(
        trials, derive_seed(0xC0111ULL, k),
        [&](std::uint64_t seed) {
          const auto g = graph::make_dataset_graph(profile, n, seed);
          core::SelectParams params;
          params.k_links = k;
          core::SelectSystem sys(g, params, seed);
          sys.build();
          const auto hops = pubsub::measure_hops(sys, 250, seed);
          return sim::MetricMap{{"hops", hops.hops.mean()},
                                {"success", hops.success_rate()}};
        });
    table.add_row({std::to_string(k), fmt(summary.mean("hops")),
                   fmt(100.0 * summary.mean("success"), 1)});
    csv.row({static_cast<double>(k), summary.mean("hops"),
             summary.mean("success")});
  }
  table.print();
  std::printf("\nlog2(N) = %zu for N = %zu — the paper's chosen operating "
              "point\nwrote %s\n",
              log2n, n, csv.path().c_str());
  bench::write_run_report("connection_sweep", csv.path());
  return 0;
}
