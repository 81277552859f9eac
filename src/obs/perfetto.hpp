// Perfetto / Chrome Trace Event Format exporter.
//
// Serializes the global trace state — per-message provenance
// (obs/provenance.hpp), the per-round time series (obs/sampler.hpp) and
// aggregate SEL_TRACE_SCOPE span totals — into the JSON Trace Event Format
// understood by ui.perfetto.dev and chrome://tracing.
//
// Track layout (pid = process group, tid = track):
//   pid 1 "peers"       one track per peer that appears in a traced
//                       dissemination; hop slices (sim time, µs) linked
//                       parent→child with flow events (ph "s"/"f")
//   pid 2 "rounds"      one track per producer label ("select.round",
//                       ...); per-round counter series (ph "C") from the
//                       round sampler, plus compute/deliver slices for
//                       points that carry `compute_ms`/`deliver_ms` (the
//                       deliver slice ends at the point's wall-clock ts)
//   pid 3 "span totals" aggregate SEL_TRACE_SCOPE spans laid out
//                       end-to-end (their individual begin times are not
//                       recorded — only totals)
//
// Every emitted event carries ph/ts/pid/tid; "X" events add dur, flow
// events add id, and each flow id appears exactly once as "s" and once as
// "f" (asserted by tests/obs_trace_test.cpp).
#pragma once

#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/sampler.hpp"

namespace sel::obs {

/// Builds the trace document from explicit snapshots (unit-testable).
[[nodiscard]] json::Value build_trace_json(
    const ProvenanceTracer::Snapshot& provenance,
    const std::vector<TimeSeriesPoint>& timeseries, const Snapshot& metrics);

/// Builds the trace document from the process-wide recorders.
[[nodiscard]] json::Value build_trace_json();

/// Writes the global trace to `path` (compact JSON). Returns false when the
/// file could not be opened — callers degrade like RunReport::write.
bool write_trace_file(const std::string& path);

/// `<csv_path minus .csv>.trace.json` (plain `path + ".trace.json"` when
/// the extension is absent).
[[nodiscard]] std::string trace_path_for_csv(const std::string& csv_path);

}  // namespace sel::obs
