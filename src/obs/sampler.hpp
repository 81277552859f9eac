// Per-round time-series: one registry snapshot per protocol round.
//
// The metrics registry answers "how much over the whole run"; the sampler
// answers "how did it evolve round by round". At each sample point it
// snapshots every counter, stores the *delta* since the previous sample
// (zero deltas are elided), merges in caller-provided gauges (id movement,
// link changes, ...) and derives round-level ratios:
//
//   relay_ratio     Δpubsub.relay_forwards / Δpubsub.deliveries
//   avg_route_hops  Δpubsub.delivery_hops  / Δpubsub.deliveries
//
// The series is attached to the RunReport as its `timeseries` section and
// rendered by scripts/trace_report.py.
//
// A protocol round's point is its only per-round record: `select.round`
// points carry the round's compute and deliver wall times (`compute_ms`,
// `deliver_ms`) beside its gauges, and the Perfetto exporter draws the
// round's phase slices from them.
//
// It also derives `select.rounds_to_stable_ids` — the number of rounds
// until Alg. 2 identifier movement falls (and stays) below
// kStableEpsilon — published as a registry gauge after every sample.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sel::obs {

struct TimeSeriesPoint {
  std::string label;       ///< producer, e.g. "select.round"
  std::uint64_t round = 0; ///< producer's monotonic round index
  std::int64_t ts_us = 0;  ///< wall clock at sample time (trace epoch)
  /// Counter deltas since the previous sample (by counter name), caller
  /// gauges, and derived ratios. Ordered map: deterministic serialization.
  std::map<std::string, double> values;
};

class RoundSampler {
 public:
  /// Bound on stored points; later samples are counted in
  /// `obs.timeseries_dropped` instead of stored, so unbounded simulations
  /// cannot grow the series forever.
  static constexpr std::size_t kMaxPoints = 20'000;

  /// Id movement below this counts as stable.
  static constexpr double kStableEpsilon = 1e-3;

  /// Snapshots the global registry and appends one point. `gauges` are
  /// stored as-is; the key "id_movement" additionally feeds the
  /// rounds-to-stable-ids derivation. SEL_OBS=off: a single branch.
  void sample(std::string_view label, std::uint64_t round,
              std::map<std::string, double> gauges = {});

  /// The stored points, rebuilt with their names and labels.
  [[nodiscard]] std::vector<TimeSeriesPoint> snapshot() const;

  /// Clears the series and the delta baseline.
  void reset();

  static RoundSampler& global();

 private:
  /// A stored point: names and labels are interned, and its values are
  /// the entries [first, first + count) of value_names_ and values_, in
  /// name order.
  struct StoredPoint {
    std::uint32_t label = 0;
    std::uint32_t count = 0;
    std::uint64_t round = 0;
    std::int64_t ts_us = 0;
    std::size_t first = 0;
  };

  /// Id of `name` in names_, adding it on first use.
  std::uint32_t intern(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> prev_counters_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<StoredPoint> points_;
  /// Deques grow without copying what they hold.
  std::deque<std::uint32_t> value_names_;
  std::deque<double> values_;
  std::uint64_t movement_samples_ = 0;  ///< samples carrying "id_movement"
  std::uint64_t stable_after_ = 0;      ///< rounds until movement stayed < eps
};

}  // namespace sel::obs
