// Memory per peer as the network grows: builds the full SELECT system at
// three graph sizes and reports `mem.bytes_per_peer` (RSS over peers) plus
// the tracked subsystem footprint at each — the per-node state cost ROADMAP
// item 7 (honest memory) budgets.
#include "bench/bench_common.hpp"
#include "graph/profiles.hpp"
#include "obs/memory.hpp"
#include "select/protocol.hpp"

int main() {
  using namespace sel;
  bench::print_banner(
      "memory scaling",
      "per-peer state of the SELECT overlay (ring + K long links, LSH "
      "buckets, friendship bitmaps) over the N sweep",
      "tracked bytes grow near-linearly with N; bytes/peer falls as the "
      "process baseline amortizes");

  // One full SELECT build per size; each row is sampled while the system is
  // alive, then the system is torn down so sizes do not stack. RSS is
  // monotone across the process (freed pages rarely return to the kernel),
  // so ascending sizes keep bytes_per_peer honest at the largest N and
  // conservative at the smaller ones; the tracked mem.* values are exact.
  CsvWriter mem_csv(bench::output_path("scaling_memory.csv"),
                    {"n", "graph_live_bytes", "overlay_live_bytes",
                     "tracked_live_bytes", "rss_bytes", "bytes_per_peer"});
  TablePrinter mem_table({"n", "tracked", "rss", "bytes/peer"});
  for (const std::size_t size : bench::default_sizes()) {
    {
      const auto sg = graph::make_dataset_graph(
          graph::profile_by_name("facebook"), size, 1);
      net::NetworkModel net(sg.num_nodes(), 1);
      core::SelectSystem sys(sg, core::SelectParams{}, 1, &net);
      sys.build();
      obs::poll_memory_gauges();
      const auto mem = obs::memory_values();
      const auto at = [&mem](const char* key) {
        const auto it = mem.find(key);
        return it == mem.end() ? 0.0 : it->second;
      };
      mem_csv.row({static_cast<double>(size), at("mem.graph.live_bytes"),
                   at("mem.overlay.live_bytes"),
                   at("mem.tracked.live_bytes"), at("mem.rss_bytes"),
                   at("mem.bytes_per_peer")});
      mem_table.add_row({std::to_string(size),
                         fmt(at("mem.tracked.live_bytes"), 0),
                         fmt(at("mem.rss_bytes"), 0),
                         fmt(at("mem.bytes_per_peer"), 0)});
      // A per-size time-series point so the report carries the sweep, not
      // just the final size's gauges.
      obs::RoundSampler::global().sample(
          "scaling.memory", size,
          {{"mem.bytes_per_peer", at("mem.bytes_per_peer")},
           {"mem.tracked.live_bytes", at("mem.tracked.live_bytes")},
           {"mem.graph.live_bytes", at("mem.graph.live_bytes")},
           {"mem.overlay.live_bytes", at("mem.overlay.live_bytes")}});
    }
  }
  mem_table.print();
  std::printf("wrote %s\n", mem_csv.path().c_str());
  // The CSV path only names the report (scaling.report.json); no
  // scaling.csv is written.
  bench::write_run_report("scaling", bench::output_path("scaling.csv"));
  return 0;
}
