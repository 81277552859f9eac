// Figures 2-5 from one sweep over profile x N x system x trial. Each overlay
// is built once and measured for every figure that reads its cell:
//
// - Fig. 2: average hops per social lookup vs network size.
// - Fig. 3: average relay nodes per publisher->subscriber routing path.
// - Fig. 4: forwarding load at one N: the share of each social-degree
//   decile, the share handled by the top-degree 10% of peers, the Gini
//   coefficient of per-peer forwards and the share of forwards done by
//   non-subscribers (pure relay traffic). SELECT's claim is that forwarding
//   work sits with interested subscribers and no peer class is overloaded;
//   Vitis/OMen concentrate load on hubs.
// - Fig. 5: iterations to construct the overlay. Symphony and Bayeux are
//   excluded (non-iterative), exactly as in the paper.
//
// Every cell draws its trial seeds from derive_seed(0xF16'2, n), so a
// (profile, N, system, trial) names one overlay whichever figure reads it.
#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "baselines/factory.hpp"
#include "bench/bench_common.hpp"
#include "pubsub/metrics.hpp"
#include "sim/trial.hpp"

namespace {

bool contains(const auto& range, const auto& value) {
  return std::find(range.begin(), range.end(), value) != range.end();
}

}  // namespace

int main() {
  using namespace sel;
  const auto hop_sizes = bench::default_sizes();  // Figs. 2 and 3
  const std::size_t load_n = scaled(1000, 200);   // Fig. 4
  auto iter_sizes = hop_sizes;                    // Fig. 5
  iter_sizes.push_back(scaled(2000));
  std::set<std::size_t> sizes(iter_sizes.begin(), iter_sizes.end());
  sizes.insert(load_n);
  const auto systems = baselines::overlay_names(/*paper_only=*/true);
  const std::vector<std::string> iterative{"select", "vitis", "omen"};
  const std::size_t trials = trial_count(2);

  std::map<std::tuple<std::string_view, std::size_t, std::string>,
           sim::TrialSummary>
      cells;
  for (const auto& profile : graph::all_profiles()) {
    std::printf("sweeping %s\n", std::string(profile.name).c_str());
    std::fflush(stdout);
    for (const std::size_t n : sizes) {
      for (const auto& name : systems) {
        const bool fig23 = contains(hop_sizes, n);
        const bool fig4 = n == load_n;
        const bool fig5 = contains(iter_sizes, n) && contains(iterative, name);
        if (!fig23 && !fig4 && !fig5) continue;
        cells[{profile.name, n, name}] = sim::run_trials(
            trials, derive_seed(0xF16'2, n), [&](std::uint64_t seed) {
              const auto g = graph::make_dataset_graph(profile, n, seed);
              auto ov = baselines::make_overlay(name, g, {.seed = seed});
              ov->build();
              sim::MetricMap m;
              if (fig23) {
                const auto hops = pubsub::measure_hops(*ov, 300, seed);
                m["hops"] = hops.hops.mean();
                m["success"] = hops.success_rate();
                const auto relays = pubsub::measure_relays(
                    overlay::PubSubSystem(*ov),
                    bench::workload_publishers(g, 25, seed));
                m["per_path"] = relays.relays_per_path.mean();
                m["per_tree"] = relays.relays_per_tree.mean();
                m["coverage"] = relays.coverage.mean();
              }
              if (fig4) {
                const auto load = pubsub::measure_load(
                    overlay::PubSubSystem(*ov),
                    bench::workload_publishers(g, 40, seed));
                m["top"] = load.top_decile_share;
                m["gini"] = load.gini;
                m["relay_share"] = load.relay_forward_share;
                m["fwd_per_delivery"] = load.forwards_per_delivery;
                m["d0"] = load.share_by_degree_decile.front();
                m["d9"] = load.share_by_degree_decile.back();
              }
              if (fig5) {
                m["iters"] = static_cast<double>(ov->build_iterations());
              }
              return m;
            });
      }
    }
  }
  std::printf("%zu (profile, N, system) cells, one build per trial each\n\n",
              cells.size());

  const auto cell = [&](const graph::DatasetProfile& profile, std::size_t n,
                        const std::string& name) -> const sim::TrialSummary& {
    return cells.at({profile.name, n, name});
  };
  // Figs. 2, 3 and 5: per data set, a table of `metric` with N down and
  // systems across, and one CSV row per (N, system).
  const auto by_n = [&](const char* csv_name, std::vector<std::string> columns,
                        const std::vector<std::size_t>& ns,
                        const std::vector<std::string>& names,
                        const char* metric, int digits, const auto& csv_tail) {
    CsvWriter csv(bench::output_path(csv_name), std::move(columns));
    for (const auto& profile : graph::all_profiles()) {
      std::printf("--- %s ---\n", std::string(profile.name).c_str());
      std::vector<std::string> header{"n"};
      header.insert(header.end(), names.begin(), names.end());
      TablePrinter table(header);
      for (const std::size_t n : ns) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto& name : names) {
          const auto& s = cell(profile, n, name);
          row.push_back(fmt(s.mean(metric), digits));
          std::vector<std::string> line{std::string(profile.name),
                                        std::to_string(n), name};
          for (auto& value : csv_tail(s)) line.push_back(std::move(value));
          csv.row(line);
        }
        table.add_row(std::move(row));
      }
      table.print();
      std::printf("\n");
    }
    std::printf("wrote %s\n\n", csv.path().c_str());
  };
  using Row = std::vector<std::string>;

  bench::print_banner(
      "Figure 2 — hops per social lookup",
      "Fig. 2(a-d): avg hops publisher->subscriber vs network size, 5 systems "
      "x 4 data sets",
      "SELECT stays at 1-2 hops; Symphony grows ~log N; SELECT >=43-85% fewer "
      "hops than every baseline");
  by_n("fig2_hops.csv",
       {"dataset", "n", "system", "hops", "ci95", "success_rate"}, hop_sizes,
       systems, "hops", 2, [](const sim::TrialSummary& s) {
         return Row{fmt(s.mean("hops"), 4), fmt(s.ci95("hops"), 4),
                    fmt(s.mean("success"), 4)};
       });

  bench::print_banner(
      "Figure 3 — relay nodes per pub/sub routing path",
      "Fig. 3(a-d): avg relay nodes publisher->subscriber vs network size",
      "SELECT near zero (>=89-98% reduction); Bayeux worst (rendezvous "
      "trees); Symphony/Vitis in between");
  by_n("fig3_relays.csv",
       {"dataset", "n", "system", "relays_per_path", "relays_per_tree",
        "coverage"},
       hop_sizes, systems, "per_path", 2, [](const sim::TrialSummary& s) {
         return Row{fmt(s.mean("per_path"), 4), fmt(s.mean("per_tree"), 4),
                    fmt(s.mean("coverage"), 4)};
       });

  bench::print_banner(
      "Figure 4 — messages forwarded per social degree",
      "Fig. 4(a-d): % of messages forwarded vs peer social degree",
      "SELECT avoids hotspots (>=46-73% better balance than socially-aware "
      "baselines); Vitis concentrates load on hubs; SELECT's relay traffic "
      "share is near zero");
  CsvWriter load_csv(bench::output_path("fig4_load.csv"),
                     {"dataset", "system", "top_decile_share_pct", "gini",
                      "relay_forward_share", "forwards_per_delivery",
                      "decile0", "decile9"});
  for (const auto& profile : graph::all_profiles()) {
    std::printf("--- %s (N=%zu) ---\n", std::string(profile.name).c_str(),
                load_n);
    TablePrinter table({"system", "top-10% deg share", "gini",
                        "relay fwd share", "fwd/delivery"});
    for (const auto& name : systems) {
      const auto& s = cell(profile, load_n, name);
      table.add_row({name, fmt(s.mean("top"), 1) + "%", fmt(s.mean("gini")),
                     fmt(s.mean("relay_share"), 3),
                     fmt(s.mean("fwd_per_delivery"))});
      load_csv.row(Row{std::string(profile.name), name, fmt(s.mean("top"), 3),
                       fmt(s.mean("gini"), 4), fmt(s.mean("relay_share"), 4),
                       fmt(s.mean("fwd_per_delivery"), 4),
                       fmt(s.mean("d0"), 3), fmt(s.mean("d9"), 3)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("wrote %s\n\n", load_csv.path().c_str());

  bench::print_banner(
      "Figure 5 — iterations to construct the overlay",
      "Fig. 5: convergence iterations, SELECT vs Vitis vs OMen (Symphony/"
      "Bayeux excluded: no iterative process)",
      "SELECT converges in up to ~75% fewer iterations; its links start "
      "social and only need refinement, while Vitis/OMen must discover "
      "structure from random starts");
  by_n("fig5_convergence.csv", {"dataset", "n", "system", "iterations", "ci95"},
       iter_sizes, iterative, "iters", 1, [](const sim::TrialSummary& s) {
         return Row{fmt(s.mean("iters"), 2), fmt(s.ci95("iters"), 2)};
       });

  bench::write_run_report("figure_sweep",
                          bench::output_path("figure_sweep.csv"));
  return 0;
}
