// select_e2e — end-to-end benchmark of the SELECT pipeline.
//
//   select_e2e --workload build|feed|chaos --seed N --seconds S --trace 0|1
//
// Repeats the pipeline pass (pipeline.hpp) on the seed's inputs for about
// S seconds, checks the outputs, and prints a table of every metric with
// its unit followed, as the last line, by one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0: untraced passes only; the metrics are the end-to-end ones
// (medians over the passes). --trace 1: untraced and traced passes
// alternate; the metrics are the per-layer ones, from the traced passes,
// and the run also checks that traced and untraced passes agree on every
// count. An operation is one (message, online subscriber) notification;
// undelivered ones are failures. Exit status: 0 when every check passed,
// 1 when a check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/memory.hpp"
#include "pipeline.hpp"
#include "recorder.hpp"
#include "speed.hpp"

namespace {

using perfbench::PassResult;
using perfbench::quantile;

/// Set-up is timed on its own, back to back for kSetupBurstS after the
/// warm-up pass and after every pass, and setup_s is the median of at least
/// kSetupSamples. One set-up takes 2 to 10 ms and the speed of a shared box
/// swings for seconds at a time, so samples from one stretch would be
/// decided by that stretch. The reference kernel (speed.hpp) is timed the
/// same way, for the same reason.
constexpr std::size_t kSetupSamples = 21;
constexpr double kSetupBurstS = 0.25;
constexpr std::size_t kReferenceSamples = 21;
constexpr double kReferenceBurstS = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      a.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      a.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      a.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median over passes of one derived value.
double median_of(const std::vector<PassResult>& passes,
                 const std::function<double(const PassResult&)>& f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const auto& p : passes) v.push_back(f(p));
  return median(v);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered metric list; printed as a table and as the JSON "metrics" map.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Names of the counts that differ between two passes ("" when equal).
std::string count_diff(const std::map<std::string, double>& a,
                       const std::map<std::string, double>& b) {
  std::string out;
  for (const auto& [name, v] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != v) out += " " + name;
  }
  for (const auto& [name, v] : b) {
    if (!a.contains(name)) out += " " + name;
  }
  return out;
}

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// End-to-end metrics; every wall-clock time is multiplied by `scale`, from
/// the box's speed relative to the reference (speed.hpp), and every rate
/// divided by it.
void end_to_end_metrics(const perfbench::WorkloadSpec& spec,
                        const std::vector<PassResult>& passes,
                        const std::vector<double>& setup_samples, double scale,
                        MetricList& m) {
  const auto& c = passes.front().counts;
  const double peers = static_cast<double>(spec.peers);
  const double rounds = c.at("select.rounds");
  m.add("setup_s", scale * median(setup_samples), "s");
  m.add("build_s",
        scale * median_of(passes, [](auto& p) { return p.build_s; }), "s");
  m.add("peer_rounds_per_s",
        median_of(passes,
                  [&](auto& p) { return ratio(peers * rounds, p.round_s); }) /
            scale,
        "1/s");
  m.add("rounds_to_converge", rounds, "count");
  m.add("disseminate_s",
        scale * median_of(passes, [](auto& p) { return p.disseminate_s; }),
        "s");
  m.add("deliveries_per_s", median_of(passes, [](auto& p) {
          return ratio(p.counts.at("pubsub.deliveries"), p.disseminate_s);
        }) / scale,
        "1/s");
  m.add("wall_s", scale * median_of(passes, [](auto& p) { return p.wall_s; }),
        "s");
  m.add("delivery_rate",
        ratio(c.at("pubsub.delivered"), c.at("pubsub.wanted")), "ratio");
  // Virtual time of the simulated network, not a wall-clock reading.
  m.add("notify_p50_s", c.at("pubsub.notify_p50_s"), "sim_s");
  m.add("notify_p95_s", c.at("pubsub.notify_p95_s"), "sim_s");
  m.add("relay_ratio",
        ratio(c.at("pubsub.relay_forwards"), c.at("pubsub.deliveries")),
        "ratio");
  m.add("peak_rss_mb",
        static_cast<double>(sel::obs::read_rss().rss_peak_bytes) /
            (1024.0 * 1024.0),
        "MB");
}

using Layers = std::map<std::string, perfbench::Recorder::Layer>;

/// Per-layer metrics from the traced passes (`layers[i]` belongs to
/// `traced[i]`); timings are medians over the traced passes.
void per_layer_metrics(const std::vector<PassResult>& untraced,
                       const std::vector<PassResult>& traced,
                       const std::vector<Layers>& layers, MetricList& m) {
  const auto span_median = [&](const char* name,
                               const std::function<double(
                                   const perfbench::Recorder::Layer&)>& f) {
    std::vector<double> v;
    for (const auto& l : layers) {
      const auto it = l.find(name);
      v.push_back(it == l.end() ? 0.0 : f(it->second));
    }
    return median(v);
  };
  const auto total_s = [&](const char* name) {
    return span_median(name, [](auto& l) { return l.total_s; });
  };
  const auto pct = [&](const char* name, double q, double scale) {
    return span_median(
        name, [&](auto& l) { return scale * quantile(l.durations_s, q); });
  };
  const auto& c = traced.front().counts;
  const auto& tc = traced.front().traced_counts;
  const auto count = [&](const char* name) {
    m.add(name, c.at(name), "count");
  };

  m.add("graph.generate_s", total_s("graph.generate"), "s");
  m.add("graph.edges", c.at("graph.edges"), "count");

  m.add("select.join_s", total_s("select.join"), "s");
  m.add("select.round_ms_p50", pct("select.round", 0.5, 1e3), "ms");
  m.add("select.round_ms_max", pct("select.round", 1.0, 1e3), "ms");
  m.add("select.link_changes", tc.at("select.link_changes"), "count");
  m.add("select.movement", tc.at("select.movement"), "ring");
  count("select.tie_hits");
  count("select.tie_merges");
  m.add("select.maintenance_ms_p50", pct("select.maintenance", 0.5, 1e3),
        "ms");
  count("select.maintenance_rounds");

  m.add("overlay.build_tree_us_p50", pct("overlay.build_tree", 0.5, 1e6),
        "us");
  m.add("overlay.build_tree_us_p99", pct("overlay.build_tree", 0.99, 1e6),
        "us");
  m.add("overlay.tree_nodes", tc.at("overlay.tree_nodes"), "nodes");
  m.add("overlay.tree_depth_mean", tc.at("overlay.tree_depth_mean"), "hops");
  m.add("overlay.tree_rebuilds", c.at("pubsub.tree_cache_misses"), "count");

  m.add("pubsub.publish_us_p50", pct("pubsub.publish", 0.5, 1e6), "us");
  m.add("pubsub.publish_us_p99", pct("pubsub.publish", 0.99, 1e6), "us");
  m.add("pubsub.tree_cache_hit_ratio",
        ratio(c.at("pubsub.tree_cache_hits"),
              c.at("pubsub.tree_cache_hits") + c.at("pubsub.tree_cache_misses")),
        "ratio");
  m.add("pubsub.notify_p99_s", c.at("pubsub.notify_p99_s"), "sim_s");
  m.add("pubsub.inflight_delivery_rate",
        ratio(c.at("pubsub.deliveries"), c.at("pubsub.wanted")), "ratio");
  count("pubsub.lost_to_crash");
  for (const char* name :
       {"pubsub.retries", "pubsub.retry_exhausted", "pubsub.failovers",
        "pubsub.replays", "pubsub.duplicates_suppressed", "pubsub.missed",
        "pubsub.pending_replays"}) {
    count(name);
  }
  count("pubsub.multipath_plans");
  m.add("pubsub.multipath_plan_ms_p50", pct("pubsub.multipath_plan", 0.5, 1e3),
        "ms");
  m.add("pubsub.replay_us_p50", pct("pubsub.replay", 0.5, 1e6), "us");
  count("sim.epochs_with_posts");

  for (const char* name : {"mailbox.quorum_writes", "mailbox.quorum_degraded",
                           "mailbox.handoffs", "mailbox.replays"}) {
    count(name);
  }

  const double drain_s = total_s("runtime.drain");
  m.add("runtime.drain_s", drain_s, "s");
  count("runtime.events_fired");
  m.add("runtime.events_per_s", ratio(c.at("runtime.events_fired"), drain_s),
        "1/s");
  count("runtime.queue_depth_max");

  for (const char* name : {"fault.drops", "fault.duplicates", "fault.spikes",
                           "fault.stalls", "fault.crashes"}) {
    count(name);
  }

  const double tracked =
      median_of(traced, [](auto& p) { return p.tracked_bytes; });
  m.add("mem.rss_peak_bytes",
        static_cast<double>(sel::obs::read_rss().rss_peak_bytes), "bytes");
  m.add("mem.tracked_bytes", tracked, "bytes");
  m.add("mem.tracked_share", median_of(traced, [](auto& p) {
          return ratio(p.tracked_bytes, p.rss_bytes);
        }),
        "ratio");

  // Self time of every span; the chaos-only ones read 0 elsewhere. On
  // chaos they split dissemination between publish (tree rebuilds, timed
  // again by the probe's overlay.build_tree, and mailbox replication),
  // event draining (hops, acks, retries, mailbox stores), failover
  // planning, replays, churn and maintenance.
  for (const char* name :
       {"setup", "graph.generate", "net.model", "sim.posts", "build",
        "select.init", "select.join", "select.round", "overlay.probe",
        "overlay.build_tree", "disseminate", "pubsub.publish",
        "runtime.drain", "pubsub.multipath_plan", "pubsub.replay",
        "sim.churn", "select.maintenance"}) {
    m.add(std::string("self.") + name + "_s",
          span_median(name, [](auto& l) { return l.self_s; }), "s");
  }

  const double untraced_wall =
      median_of(untraced, [](auto& p) { return p.wall_s; });
  const double traced_wall =
      median_of(traced, [](auto& p) { return p.wall_s; });
  m.add("trace.overhead_s", traced_wall - untraced_wall, "s");
  m.add("trace.overhead_share",
        ratio(traced_wall - untraced_wall, untraced_wall), "ratio");
}

void print_result(bool correct, double attempted, double failed,
                  const MetricList& m) {
  std::printf("\n%-34s %20s  %s\n", "metric", "value", "unit");
  for (const auto& x : m.items()) {
    std::printf("%-34s %20.6f  %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& x : m.items()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", x.name.c_str(), x.value, x.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: select_e2e --workload build|feed|chaos --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const char* threads = std::getenv("SELECT_THREADS");
  std::printf("workload %s (seed %llu, %.0f s, trace %d, SELECT_THREADS=%s)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, threads != nullptr ? threads : "unset");

  // A warm-up pass first, untimed: the first pass of a fresh process grows
  // the heap and runs about a tenth slower. Its counts are checked with the
  // others'. Then passes until the time is spent: each pass is predicted to
  // take as long as the mean so far. At least two timed passes; with
  // tracing, untraced and traced passes alternate. Untraced, set-up and the
  // reference kernel are timed in bursts between the passes.
  const auto start = perfbench::Clock::now();
  perfbench::Recorder warmup_rec(false);
  const PassResult warmup = perfbench::run_pass(*spec, args.seed, warmup_rec);
  std::vector<double> setup_samples;
  std::vector<double> reference_samples;
  const auto sample_between = [&] {
    for (auto burst = perfbench::Clock::now();
         !args.trace && perfbench::seconds_since(burst) < kSetupBurstS;) {
      setup_samples.push_back(perfbench::time_setup(*spec, args.seed));
    }
    for (auto burst = perfbench::Clock::now();
         !args.trace && perfbench::seconds_since(burst) < kReferenceBurstS;) {
      reference_samples.push_back(perfbench::reference_kernel_s());
    }
  };
  sample_between();

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<Layers> layers;
  double passes_s = 0.0;
  for (std::size_t i = 0;; ++i) {
    const bool trace_pass = args.trace && i % 2 == 1;
    perfbench::Recorder rec(trace_pass);
    const auto pass_start = perfbench::Clock::now();
    PassResult pass = perfbench::run_pass(*spec, args.seed, rec);
    passes_s += perfbench::seconds_since(pass_start);
    std::printf("  pass %zu%s: setup %.3f s, build %.3f s, disseminate "
                "%.3f s, wall %.3f s\n",
                i + 1, trace_pass ? " (traced)" : "", pass.setup_s,
                pass.build_s, pass.disseminate_s, pass.wall_s);
    std::fflush(stdout);
    if (trace_pass) {
      layers.push_back(rec.layers());
      traced.push_back(std::move(pass));
    } else {
      untraced.push_back(std::move(pass));
    }
    sample_between();
    const double per_pass = passes_s / static_cast<double>(i + 1);
    if (i >= 1 && perfbench::seconds_since(start) + per_pass > args.seconds) {
      break;
    }
  }
  while (!args.trace && setup_samples.size() < kSetupSamples) {
    setup_samples.push_back(perfbench::time_setup(*spec, args.seed));
  }
  while (!args.trace && reference_samples.size() < kReferenceSamples) {
    reference_samples.push_back(perfbench::reference_kernel_s());
  }

  Checks checks;
  const auto& c = warmup.counts;
  for (const auto& p : untraced) {
    const std::string d = count_diff(c, p.counts);
    checks.expect(d.empty(), "untraced passes disagree on:" + d);
  }
  for (const auto& p : traced) {
    const std::string d = count_diff(c, p.counts);
    checks.expect(d.empty(), "traced pass disagrees with untraced on:" + d);
    const std::string t =
        count_diff(traced.front().traced_counts, p.traced_counts);
    checks.expect(t.empty(), "traced passes disagree on:" + t);
  }
  checks.expect(c.at("select.converged") == 1.0, "overlay did not converge");
  const double wanted = c.at("pubsub.wanted");
  const double delivered = c.at("pubsub.delivered");
  const double attempted = wanted - c.at("pubsub.lost_to_crash");
  checks.expect(attempted >= 1.0, "no notification was wanted");
  checks.expect(delivered + c.at("pubsub.failed") +
                        c.at("pubsub.lost_to_crash") ==
                    wanted,
                "delivered, failed and lost do not add up to wanted");
  for (const auto& p : traced) {
    checks.expect(p.traced_counts.at("overlay.tree_probes") ==
                      c.at("pubsub.tree_cache_misses"),
                  "the tree probe missed trees the engine rebuilt");
  }
  if (spec->chaos) {
    checks.expect(c.at("sim.epochs_with_posts") == c.at("sim.epochs"),
                  "an epoch carried no post");
    checks.expect(ratio(delivered, wanted) >= 0.99,
                  "reliable delivery rate below 0.99");
    checks.expect(c.at("pubsub.failed") == 0.0,
                  "a live subscriber never received a notification");
  } else {
    checks.expect(c.at("pubsub.deliveries") == wanted,
                  "perfect transfer did not deliver exactly once");
    checks.expect(c.at("pubsub.incomplete") == 0.0,
                  "a message never completed");
  }
  if (spec->max_posts != 0) {
    checks.expect(c.at("pubsub.posts") == static_cast<double>(spec->max_posts),
                  "probe stream shorter than its post count");
  }

  std::printf("\ncounts (identical in every pass):\n");
  for (const auto& [name, v] : c) std::printf("  %-32s %.17g\n", name.c_str(), v);
  if (!traced.empty()) {
    for (const auto& [name, v] : traced.front().traced_counts) {
      std::printf("  %-32s %.17g\n", name.c_str(), v);
    }
  }
  std::printf("notify percentiles rest on %.0f completed messages\n",
              c.at("pubsub.notify_samples"));
  double scale = 1.0;
  if (!args.trace) {
    const double reference_s = median(reference_samples);
    scale = std::pow(perfbench::kReferenceS / reference_s,
                     perfbench::kSpeedElasticity);
    std::printf("setup_s is the median of %zu set-ups\n"
                "reference kernel: median %.6f s of %zu calls; wall-clock "
                "metrics scaled by %.6f\n"
                "measured medians before scaling: setup %.6f s, build "
                "%.6f s, disseminate %.6f s, wall %.6f s\n",
                setup_samples.size(), reference_s, reference_samples.size(),
                scale, median(setup_samples),
                median_of(untraced, [](auto& p) { return p.build_s; }),
                median_of(untraced, [](auto& p) { return p.disseminate_s; }),
                median_of(untraced, [](auto& p) { return p.wall_s; }));
  }

  MetricList metrics;
  if (args.trace) {
    per_layer_metrics(untraced, traced, layers, metrics);
    std::printf("\nspans of traced pass 1:\n  %-22s %8s %11s %11s %11s %11s\n",
                "name", "count", "total_s", "self_s", "p50_ms", "p99_ms");
    for (const auto& [name, l] : layers.front()) {
      std::printf("  %-22s %8zu %11.6f %11.6f %11.4f %11.4f\n", name.c_str(),
                  l.count, l.total_s, l.self_s,
                  1e3 * quantile(l.durations_s, 0.5),
                  1e3 * quantile(l.durations_s, 0.99));
    }
  } else {
    end_to_end_metrics(*spec, untraced, setup_samples, scale, metrics);
  }
  for (const auto& f : checks.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  print_result(correct, attempted, c.at("pubsub.failed"), metrics);
  return correct ? 0 : 1;
}
