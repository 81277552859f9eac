// Runtime observability: a process-wide metrics registry.
//
// The registry hands out stable references to named counters, gauges,
// histograms and tracing spans. Hot-path updates are designed to be cheap
// enough for per-message/per-exchange call sites:
//   - a counter increment is a single relaxed fetch_add on one atomic;
//   - gauges are one relaxed atomic store;
//   - histograms use fixed bucket bounds chosen at registration, so observe()
//     is a small binary search plus a relaxed add;
//   - every update is a no-op when observability is disabled (SEL_OBS=off),
//     costing one predictable branch.
//
// A per-event path can skip the atomics: it counts into plain integers and
// a LocalHistogram and folds them in with Counter::add and Histogram::merge
// at its own boundary (the message plane: the end of every drain).
//
// The program runs on one thread, so the instruments are sized for one
// writer; the atomics (and the registry mutex) keep concurrent use from
// std::thread well-defined, at the cost of contention if that ever happens.
//
// Naming convention: `subsystem.metric` (e.g. `select.gossip_exchanges`,
// `pubsub.relay_forwards`, `runtime.events_fired`). Handles are meant to be
// looked up once (static local at the call site) and reused; registration
// takes a mutex, updates never do.
//
// Snapshots copy the instruments into plain structs that the RunReport
// emitter (obs/report.hpp) serializes to JSON.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
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
}  // namespace detail

/// True unless SEL_OBS=off (cached after the first call).
[[nodiscard]] inline bool enabled() noexcept {
  static const bool e = detail::read_env_enabled();
  return e;
}

/// Monotonic named counter. An increment is one relaxed atomic add.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    if (!enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<std::int64_t> v_{0};
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

class LocalHistogram;
/// Fixed-bucket histogram. `bounds` are inclusive upper edges; one implicit
/// overflow bucket catches everything above the last edge. Tracks count, sum,
/// min and max alongside the bucket counts.
class Histogram {
 public:
  void observe(double x) noexcept;
  /// Adds the batch in `local`, whose target this histogram must be.
  void merge(const LocalHistogram& local) noexcept;

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

/// Plain single-writer batch for one registry Histogram: the same bounds, no
/// atomics. flush() merges the batch into the target and clears it.
class LocalHistogram {
 public:
  explicit LocalHistogram(Histogram& target)
      : target_(&target), counts_(target.bounds().size() + 1, 0) {}
  void observe(double x) noexcept {
    if (!enabled()) return;
    const auto& b = target_->bounds();
    ++counts_[static_cast<std::size_t>(
        std::lower_bound(b.begin(), b.end(), x) - b.begin())];
    t_ = {t_.count + 1, t_.sum + x, std::min(t_.min, x), std::max(t_.max, x)};
  }
  void flush() noexcept;

 private:
  friend class Histogram;
  Histogram* target_;
  std::vector<std::int64_t> counts_;  // target bounds + 1
  struct Totals {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  } t_;
};

/// Accumulated wall-time for a labelled phase; fed by ScopedSpan
/// (obs/trace.hpp). One relaxed add per field per recorded scope.
class Span {
 public:
  void record_ns(std::int64_t ns) noexcept {
    ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t total_ns() const noexcept {
    return ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Span(std::string name) : name_(std::move(name)) {}
  void reset() noexcept {
    ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  std::string name_;
  std::atomic<std::int64_t> ns_{0};
  std::atomic<std::int64_t> count_{0};
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

  [[nodiscard]] Snapshot snapshot() const;

  /// Counter-only snapshot: what the per-round sampler (obs/sampler.hpp)
  /// needs each round, without copying histograms or spans.
  [[nodiscard]] std::vector<CounterSnapshot> counters_snapshot() const;

  /// Zeroes every instrument (instrument handles stay valid). Benches call
  /// this between independent runs.
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
};

}  // namespace sel::obs
