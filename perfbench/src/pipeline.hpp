// One pass of the SELECT pipeline for a benchmark workload:
//
//   set-up       graph::make_dataset_graph, net::NetworkModel and the
//                sim::PublicationWorkload post stream
//   build        core::SelectSystem construction, join_all(), then
//                run_to_convergence() (untraced) or run_round() until
//                converged() (traced) — the phases of SelectSystem::build()
//   disseminate  every post through pubsub::NotificationEngine::publish,
//                with the event engine drained up to each post time, then
//                drained completely
//
// A traced pass records a span around every call into a layer and adds a
// dissemination-tree probe at the start of each epoch (one
// PubSubSystem::build_tree per distinct publisher of the epoch); the
// probe's time is kept out of wall_s so traced and untraced passes time
// the same work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "recorder.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  std::string_view profile;  ///< graph::profile_by_name key
  std::size_t peers = 0;
  /// Seed of the workload's fixed dataset: the social graph, the network
  /// model, each user's posting rate and the protocol's own RNG. Between
  /// seeds, rounds to converge at 8k peers swing from 15 to 45 and the
  /// heavy posters change, which would drown any speed change. --seed draws
  /// the rest: post times, faults, churn and mailbox placement.
  std::uint64_t dataset_seed = 0;
  /// Jiang et al. posting model (sim/workload.hpp). 0 = derived from
  /// `max_notifications`: the stream is thinned at random to the cap, not
  /// cut at it, so its posts span the whole horizon.
  double median_posts_per_hour = 1.0;
  double horizon_s = 0.0;
  /// Keep only the first `max_posts` posts of the stream (0 = all).
  std::size_t max_posts = 0;
  /// Keep posts while their publishers' friend counts sum to at most this
  /// (0 = no cap). Fixes the notifications a pass owes whatever the seed.
  std::size_t max_notifications = 0;
  /// Reliable message plane under faults, churn epochs and maintenance.
  bool chaos = false;
  double epoch_s = 0.0;  ///< chaos only: churn/maintenance period
};

/// The three workloads, in the order BENCHMARK.json lists them.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Fault mix of the chaos workload (FaultSpec::parse syntax).
inline constexpr std::string_view kChaosMix =
    "drop=0.05,dup=0.01,spike=0.02,stall=0.01,crash=0.001";

struct PassResult {
  // Wall-clock phase times, seconds.
  double setup_s = 0.0;
  double build_s = 0.0;
  double round_s = 0.0;  ///< the gossip rounds of the build, join excluded
  double disseminate_s = 0.0;
  double wall_s = 0.0;  ///< set-up + build + dissemination

  /// Deterministic outputs: every value must repeat exactly for one seed,
  /// traced or not (rounds, deliveries, relay forwards, events fired,
  /// retries, notify percentiles, ...).
  std::map<std::string, double> counts;
  /// Deterministic values only a traced pass can see (per-round sums, the
  /// tree probe).
  std::map<std::string, double> traced_counts;

  // Memory at the end of dissemination, before teardown.
  double tracked_bytes = 0.0;  ///< sum of the tracked mem.* subsystems
  double rss_bytes = 0.0;
};

/// Runs one pass. `rec` decides whether spans are recorded.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& spec,
                                  std::uint64_t seed, Recorder& rec);

/// Set-up phase alone (graph, network model, post stream); returns seconds.
/// The benchmark repeats it to report a median set-up time.
[[nodiscard]] double time_setup(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
