// RunReport: a JSON artifact describing one run — metadata (experiment name,
// profile, N, seed, rounds, git describe, scale/trials/threads) plus a full
// metrics snapshot (counters, gauges, histograms, spans, per-round
// telemetry). Bench harnesses emit `<experiment>.report.json` next to every
// CSV; `scripts/compare_reports.py` diffs two of them.
#pragma once

#include <map>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace sel::obs {

struct RunReport {
  /// Schema version for tooling; bump when the layout changes.
  /// v2: adds the `timeseries` section (per-round counter deltas + gauges
  /// from obs/sampler.hpp). v3: adds the `memory` section (flat mem.*
  /// values from obs/memory.hpp). Both optional on parse, so older
  /// reports stay readable.
  static constexpr int kSchemaVersion = 3;

  std::string experiment;  ///< e.g. "fig5_convergence"
  /// Free-form run metadata (profile, n, seed, rounds, scale, trials, ...).
  /// String-valued to keep the schema simple; numbers go through fmt.
  std::map<std::string, std::string> metadata;
  std::string git_describe;  ///< `git describe --always --dirty` or "unknown"
  Snapshot snapshot;
  /// Per-round time-series (one point per sampled protocol round).
  std::vector<TimeSeriesPoint> timeseries;
  /// End-of-run resource summary (obs::memory_values()): subsystem
  /// live/peak bytes, RSS, bytes-per-peer. Ordered map: deterministic
  /// serialization. Since schema v3.
  std::map<std::string, double> memory;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static RunReport from_json(const json::Value& v);

  /// Serializes to `path` (pretty-printed). Returns false when the file
  /// could not be opened (read-only working dir) — callers degrade like
  /// CsvWriter does.
  bool write(const std::string& path) const;
};

/// Metrics snapshot <-> JSON: the `metrics` section of a RunReport.
[[nodiscard]] json::Value snapshot_to_json(const Snapshot& snap);
[[nodiscard]] Snapshot snapshot_from_json(const json::Value& v);

/// `git describe --always --dirty` for the current working tree, cached for
/// the process. "unknown" when git or the repo is unavailable.
[[nodiscard]] const std::string& git_describe();

/// `<csv_path minus .csv>.report.json` (plain `path + ".report.json"` when
/// the extension is absent).
[[nodiscard]] std::string report_path_for_csv(const std::string& csv_path);

}  // namespace sel::obs
