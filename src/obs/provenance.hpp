// Causal message provenance + timestamped trace events.
//
// Two bounded, process-wide recorders feed the Perfetto exporter
// (obs/perfetto.hpp):
//
//   ProvenanceTracer — assigns sampled publishes a trace id and records
//   every hop of the dissemination (publisher → tree edges →
//   subscriber/relay) as parent-linked events carrying peer ids, hop depth,
//   relay/delivered flags and sim + wall timestamps. Sampling is 1-in-N
//   publishes (SEL_TRACE_SAMPLE, default 64; the first publish is always
//   sampled so short runs still produce a trace). Storage is a fixed-size
//   ring buffer: old records are overwritten, never reallocated, so an
//   unbounded run cannot grow the tracer.
//
//   TraceBuffer — generic (label, phase, [ts, ts+dur]) wall-clock events
//   for protocol-round phases, same ring-buffer bound.
//
// Cost contract: with SEL_OBS=off every entry point is a single predictable
// branch (measured by BM_Trace* in bench_micro). When enabled, an unsampled
// publish costs one relaxed atomic increment; sampled records take a mutex
// (sampled volume is tiny by construction).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace sel::obs {

/// Microseconds of `tp` since the process trace epoch (first use).
[[nodiscard]] std::int64_t wall_us(
    std::chrono::steady_clock::time_point tp) noexcept;

/// Microseconds since the process trace epoch.
[[nodiscard]] std::int64_t wall_now_us() noexcept;

/// Identifies one traced dissemination; 0 = untraced (publish not sampled).
using TraceId = std::uint64_t;

/// What a trace follows: a real published message or a multipath plan.
enum class TraceKind : std::uint8_t { kPublish, kPlan };

struct PublishRecord {
  TraceId trace = 0;
  std::uint64_t msg = 0;        ///< engine message id / plan id
  std::uint32_t publisher = 0;  ///< root peer
  TraceKind kind = TraceKind::kPublish;
  double publish_s = 0.0;  ///< sim time
  std::int64_t wall_ts_us = 0;
};

/// One tree edge of a traced dissemination. Parent linkage is implicit:
/// `from` is the parent peer, so the hop set reproduces the tree exactly.
struct HopRecord {
  TraceId trace = 0;
  std::uint64_t msg = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t depth = 0;   ///< depth of `to` in the tree (root = 0)
  std::uint32_t attempt = 0; ///< send attempt; > 0 marks a retry hop
  bool relay = false;        ///< `to` forwards without being subscribed
  bool delivered = false;    ///< `to` is an online subscriber
  bool failover = false;     ///< hop rides a multipath backup route
  double send_s = 0.0;       ///< sim time the parent started the transfer
  double arrive_s = 0.0;     ///< sim time the hop completes
  std::int64_t wall_ts_us = 0;
};

class ProvenanceTracer {
 public:
  /// Ring capacities: ~4k publishes / 64k hops bound memory at a few MB.
  static constexpr std::size_t kMaxPublishes = 4096;
  static constexpr std::size_t kMaxHops = 1u << 16;

  /// Returns a fresh trace id when observability is on and this publish is
  /// sampled; 0 otherwise. SEL_OBS=off: a single branch.
  TraceId begin_publish(std::uint64_t msg, std::uint32_t publisher,
                        double time_s, TraceKind kind = TraceKind::kPublish);

  /// Records one hop of a sampled dissemination. Callers gate on the trace
  /// id, so unsampled messages never reach this.
  void record_hop(HopRecord hop);

  struct Snapshot {
    std::vector<PublishRecord> publishes;  ///< oldest first
    std::vector<HopRecord> hops;           ///< oldest first
    std::int64_t publishes_seen = 0;       ///< sampled or not
    std::int64_t publishes_sampled = 0;
    std::int64_t hops_recorded = 0;  ///< includes overwritten entries
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Clears records and the sampling counter (sample handles stay valid).
  void reset();

  /// 1-in-N publish sampling. Defaults to SEL_TRACE_SAMPLE (64). Setting it
  /// also resets the sampling counter so "every Nth starting now" holds.
  [[nodiscard]] std::size_t sample_every() const noexcept;
  void set_sample_every(std::size_t n);

  static ProvenanceTracer& global();

 private:
  mutable std::mutex mu_;
  std::size_t sample_every_ = 0;  ///< 0 = read env on first use
  std::uint64_t next_trace_ = 1;
  std::int64_t publishes_seen_ = 0;
  std::int64_t publishes_sampled_ = 0;
  std::int64_t hops_recorded_ = 0;
  std::vector<PublishRecord> publishes_;  ///< ring, capacity kMaxPublishes
  std::vector<HopRecord> hops_;           ///< ring, capacity kMaxHops
};

/// One timed phase of a protocol round, wall-clock stamped.
/// `label`/`phase` must be string literals (stored as pointers).
struct PhaseEvent {
  const char* label = "";  ///< track, e.g. "select.round"
  const char* phase = "";  ///< slice name: "compute" | "deliver"
  std::uint64_t round = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

class TraceBuffer {
 public:
  static constexpr std::size_t kMaxEvents = 1u << 16;

  /// Appends an event (ring overwrite past the cap). SEL_OBS=off: a single
  /// branch.
  void add(const PhaseEvent& event);

  /// Oldest-first copy of the buffered events.
  [[nodiscard]] std::vector<PhaseEvent> events() const;
  [[nodiscard]] std::int64_t recorded() const noexcept;

  void reset();

  static TraceBuffer& global();

 private:
  mutable std::mutex mu_;
  std::int64_t recorded_ = 0;
  std::vector<PhaseEvent> events_;  ///< ring, capacity kMaxEvents
};

}  // namespace sel::obs
