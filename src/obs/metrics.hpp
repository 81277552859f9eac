// Runtime observability: a process-wide metrics registry.
//
// The registry hands out stable references to named counters, gauges,
// histograms and tracing spans. Hot-path updates are designed to be cheap
// enough for per-message/per-exchange call sites:
//   - counters are sharded across cache-line-padded atomics (one shard per
//     thread slot), so increments from different threads never contend;
//     an increment is a single relaxed fetch_add;
//   - gauges are one relaxed atomic store;
//   - histograms use fixed bucket bounds chosen at registration, so observe()
//     is a small linear scan plus a relaxed add;
//   - every update is a no-op when observability is disabled (SEL_OBS=off),
//     costing one predictable branch.
//
// Naming convention: `subsystem.metric` (e.g. `select.gossip_exchanges`,
// `pubsub.relay_forwards`, `runtime.events_fired`). Handles are meant to be
// looked up once (static local at the call site) and reused; registration
// takes a mutex, updates never do.
//
// Snapshots merge the shards into plain structs that the RunReport emitter
// (obs/report.hpp) serializes to JSON.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sel::obs {

namespace detail {
/// Parses SEL_OBS once ("off"/"0"/"false" disable; anything else enables).
[[nodiscard]] bool read_env_enabled();

/// Small dense per-thread slot id used to pick a counter shard.
[[nodiscard]] std::size_t thread_slot() noexcept;
}  // namespace detail

/// True unless SEL_OBS=off (cached after the first call).
[[nodiscard]] inline bool enabled() noexcept {
  static const bool e = detail::read_env_enabled();
  return e;
}

/// Shards per counter. Power of two; 16 covers typical pool widths without
/// bloating snapshot cost.
inline constexpr std::size_t kCounterShards = 16;

/// Monotonic named counter. Increments are relaxed atomic adds on a
/// per-thread shard; value() sums the shards.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    if (!enabled()) return;
    shards_[detail::thread_slot() & (kCounterShards - 1)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() noexcept {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

  struct alignas(64) Cell {
    std::atomic<std::int64_t> v{0};
  };
  std::string name_;
  std::array<Cell, kCounterShards> shards_{};
};

/// Last-write-wins named value (e.g. `run.n`, `run.seed`).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges; one implicit
/// overflow bucket catches everything above the last edge. Tracks count, sum,
/// min and max alongside the bucket counts.
class Histogram {
 public:
  void observe(double x) noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Bucket counts; size is bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::int64_t> counts() const;
  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// 0 when empty (min_/max_ hold ±infinity sentinels internally).
  [[nodiscard]] double min() const noexcept {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const auto c = count();
    return c == 0 ? 0.0 : sum() / static_cast<double>(c);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<double> bounds);
  void reset() noexcept;

  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Accumulated wall-time for a labelled phase; fed by ScopedSpan
/// (obs/trace.hpp). Sharded like Counter so parallel sections can trace.
class Span {
 public:
  void record_ns(std::int64_t ns) noexcept {
    const std::size_t slot = detail::thread_slot() & (kCounterShards - 1);
    shards_[slot].ns.fetch_add(ns, std::memory_order_relaxed);
    shards_[slot].count.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t total_ns() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.ns.load(std::memory_order_relaxed);
    return sum;
  }
  [[nodiscard]] std::int64_t count() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : shards_) {
      sum += s.count.load(std::memory_order_relaxed);
    }
    return sum;
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Span(std::string name) : name_(std::move(name)) {}
  void reset() noexcept {
    for (auto& s : shards_) {
      s.ns.store(0, std::memory_order_relaxed);
      s.count.store(0, std::memory_order_relaxed);
    }
  }

  struct alignas(64) Cell {
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::int64_t> count{0};
  };
  std::string name_;
  std::array<Cell, kCounterShards> shards_{};
};

/// One protocol round, as recorded by its producer. `label` names the
/// producer ("select.round").
struct RoundSample {
  std::string label;
  std::uint64_t round = 0;
  double compute_ms = 0.0;  ///< peer work (the gossip/relink loop)
  /// Idle time waiting on other workers. Report schema: the round loop is
  /// sequential, so "select.round" records 0.
  double barrier_ms = 0.0;
  double deliver_ms = 0.0;  ///< ring rebuild
  std::uint64_t messages = 0;
};

// -- snapshots ---------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct SpanSnapshot {
  std::string name;
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
};

/// Point-in-time merge of every instrument in a registry.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<SpanSnapshot> spans;
  std::vector<RoundSample> rounds;

  /// Counter value by name (0 when absent) — convenience for tests/tools.
  [[nodiscard]] std::int64_t counter(std::string_view name) const noexcept;
};

/// Named-instrument registry. Registration is mutex-protected and returns
/// stable references (instruments are never destroyed before the registry);
/// updates through the returned references are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Repeated calls with the same name return the same instrument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` are used only on first registration; pass empty for the
  /// default latency-style buckets.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});
  Span& span(std::string_view name);

  /// Appends one round of protocol telemetry. Bounded: after kMaxRounds
  /// samples further rounds are counted in `obs.rounds_dropped` instead of
  /// stored, so unbounded simulations cannot grow the registry forever.
  void add_round(RoundSample sample);

  static constexpr std::size_t kMaxRounds = 20'000;

  [[nodiscard]] Snapshot snapshot() const;

  /// Counter-only snapshot: what the per-round sampler (obs/sampler.hpp)
  /// needs each round, without copying histograms or round telemetry.
  [[nodiscard]] std::vector<CounterSnapshot> counters_snapshot() const;

  /// Zeroes every instrument and clears round telemetry (instrument handles
  /// stay valid). Benches call this between independent runs.
  void reset();

  /// Process-wide registry used by SEL_TRACE_SCOPE and the wired-in
  /// protocol/engine call sites.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  // Node-based maps keep instrument addresses stable across registration.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<Span>, std::less<>> spans_;
  std::vector<RoundSample> rounds_;
};

}  // namespace sel::obs
