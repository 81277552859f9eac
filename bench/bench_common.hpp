// Shared plumbing for the figure/table harnesses.
//
// Every harness prints the paper-style series to stdout AND writes a CSV
// next to the binary. Sizes honour SELECT_BENCH_SCALE; trial counts honour
// SELECT_TRIALS. The paper averages 100 trials; defaults here are laptop
// sized — crank SELECT_TRIALS/SELECT_BENCH_SCALE for paper-scale runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "check/memory_checks.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "graph/profiles.hpp"
#include "obs/memory.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "overlay/system.hpp"
#include "sim/workload.hpp"

namespace sel::bench {

/// Directory all bench artifacts (CSV, report, trace) land in. Defaults to
/// `results/` under the working directory (gitignored); override with
/// SELECT_RESULTS_DIR. Created on first use; falls back to "." when the
/// directory cannot be created (read-only working dir).
inline const std::string& results_dir() {
  static const std::string dir = [] {
    std::string d = env::get_string("SELECT_RESULTS_DIR", "results");
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    if (ec) return std::string(".");
    return d;
  }();
  return dir;
}

/// `results_dir()/filename` — pass to CsvWriter so artifacts stay out of
/// the source tree.
inline std::string output_path(const std::string& filename) {
  return results_dir() + "/" + filename;
}

/// Network-size sweep used by the N-sweep figures.
inline std::vector<std::size_t> default_sizes() {
  return {scaled(250), scaled(500), scaled(1000)};
}

/// Publishers drawn from the Jiang et al. posting model (rate-weighted), so
/// prolific users publish more often — as in the paper's workload.
inline std::vector<overlay::PeerId> workload_publishers(
    const graph::SocialGraph& g, std::size_t count, std::uint64_t seed) {
  sim::PublicationWorkload workload(g, sim::WorkloadParams{}, seed);
  const auto nodes = workload.sample_publishers(count, derive_seed(seed, 1));
  return {nodes.begin(), nodes.end()};
}

inline void print_banner(const char* experiment, const char* paper_ref,
                         const char* expectation) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("expected shape: %s\n", expectation);
  std::printf("scale=%.2f trials=%zu\n\n", bench_scale(), trial_count());
}

/// Emits `<csv stem>.report.json` next to the harness CSV: run metadata
/// (scale, trials, git describe, extras like seed/N) plus a full snapshot of
/// the global metrics registry — counters, spans and per-round telemetry
/// accumulated over the whole run. `scripts/compare_reports.py` diffs two.
inline void write_run_report(
    const std::string& experiment, const std::string& csv_path,
    std::map<std::string, std::string> extra = {}) {
  // Touch the canonical protocol/message-plane counters so every report
  // carries them (as 0) even when the harness never exercised a subsystem —
  // report diffs stay schema-stable across experiments.
  auto& reg = obs::MetricsRegistry::global();
  for (const char* name :
       {"select.gossip_exchanges", "select.id_reassignments",
        "select.link_reassignments", "select.link_establishments",
        "select.rounds", "pubsub.publishes", "pubsub.deliveries",
        "pubsub.relay_forwards", "sim.trials_run"}) {
    reg.counter(name);
  }
  obs::RunReport report;
  report.experiment = experiment;
  report.git_describe = obs::git_describe();
  report.metadata = std::move(extra);
  report.metadata.emplace("scale", fmt(bench_scale(), 2));
  report.metadata.emplace("trials", std::to_string(trial_count()));
  report.metadata.emplace("obs", obs::enabled() ? "on" : "off");
  // End-of-run resource summary (schema v3): refresh the mem.* gauges so
  // the snapshot and the flat `memory` section agree, and give
  // SEL_MEM_BUDGET one last chance to fire before the artifact is written.
  obs::poll_memory_gauges();
  check::check_memory_budget();
  report.snapshot = reg.snapshot();
  report.timeseries = obs::RoundSampler::global().snapshot();
  report.memory = obs::memory_values();
  const std::string path = obs::report_path_for_csv(csv_path);
  if (report.write(path)) {
    std::printf("wrote %s\n", path.c_str());
  }
  if (obs::enabled()) {
    const std::string trace_path = obs::trace_path_for_csv(csv_path);
    if (obs::write_trace_file(trace_path)) {
      std::printf("wrote %s (open in ui.perfetto.dev)\n", trace_path.c_str());
    }
  }
}

}  // namespace sel::bench
