// Ablation study over SELECT's design choices (DESIGN.md §6):
//   1. identifier reassignment on/off (projection only),
//   2. LSH bucket link selection vs random friend links,
//   3. CMA recovery vs always-replace under churn,
//   4. lookahead on/off for routing,
//   5. invitation projection vs uniform-hash join (via enable_invite_projection).
#include "bench/bench_common.hpp"
#include "pubsub/metrics.hpp"
#include "select/protocol.hpp"
#include "sim/churn.hpp"
#include "sim/trial.hpp"

namespace {

struct Variant {
  const char* name;
  sel::core::SelectParams params;
  bool lookahead = true;
};

}  // namespace

int main() {
  using namespace sel;
  bench::print_banner(
      "ablation — SELECT design choices",
      "DESIGN.md §6: contribution of each mechanism",
      "full SELECT dominates each ablated variant on its target metric");

  const std::size_t n = scaled(800, 200);
  const std::size_t trials = trial_count(2);
  const auto& profile = graph::profile_by_name("facebook");

  std::vector<Variant> variants;
  variants.push_back({"full", core::SelectParams{}});
  {
    core::SelectParams p;
    p.enable_id_reassignment = false;
    variants.push_back({"no-id-reassign", p});
  }
  {
    core::SelectParams p;
    p.enable_lsh_selection = false;
    variants.push_back({"random-links", p});
  }
  {
    core::SelectParams p;
    p.enable_cma_recovery = false;
    variants.push_back({"no-cma", p});
  }
  {
    core::SelectParams p;
    p.enable_invite_projection = false;  // uniform-hash join for everyone
    variants.push_back({"no-invite-projection", p});
  }

  CsvWriter csv(bench::output_path("ablation.csv"),
                {"variant", "hops", "relays_per_path", "iterations",
                 "availability_under_churn"});
  TablePrinter table({"variant", "hops", "relays/path", "iterations",
                      "avail@churn"});

  for (const auto& variant : variants) {
    const auto summary = sim::run_trials(
        trials, 0xAB1A7E,
        [&](std::uint64_t seed) {
          const auto g = graph::make_dataset_graph(profile, n, seed);
          core::SelectSystem sys(g, variant.params, seed);
          sys.build();
          const overlay::PubSubSystem ps(sys);
          const auto hops = pubsub::measure_hops(sys, 250, seed);
          const auto publishers = bench::workload_publishers(g, 20, seed);
          const auto relays = pubsub::measure_relays(ps, publishers);

          // Churn phase: 30% of peers cycle off/on for several epochs.
          sim::SessionChurn::Params churn_params;
          churn_params.session_median_s = 1200.0;
          churn_params.offline_median_s = 900.0;
          sim::SessionChurn churn(n, churn_params, seed);
          RunningStats avail;
          for (int epoch = 1; epoch <= 5; ++epoch) {
            churn.advance_to(epoch * 900.0);
            for (overlay::PeerId p = 0; p < n; ++p) {
              sys.set_peer_online(p, churn.online(p));
            }
            sys.maintenance_round();
            avail.add(
                pubsub::measure_availability(ps, publishers).availability());
          }
          return sim::MetricMap{
              {"hops", hops.hops.mean()},
              {"relays", relays.relays_per_path.mean()},
              {"iters", static_cast<double>(sys.build_iterations())},
              {"avail", avail.mean()},
          };
        });
    table.add_row({variant.name, fmt(summary.mean("hops")),
                   fmt(summary.mean("relays"), 3),
                   fmt(summary.mean("iters"), 1),
                   fmt(100.0 * summary.mean("avail"), 2) + "%"});
    csv.row(std::vector<std::string>{
        variant.name, fmt(summary.mean("hops"), 4),
        fmt(summary.mean("relays"), 4), fmt(summary.mean("iters"), 2),
        fmt(summary.mean("avail"), 4)});
  }
  table.print();
  std::printf("\nwrote %s\n", csv.path().c_str());
  bench::write_run_report("ablation", csv.path());
  return 0;
}
