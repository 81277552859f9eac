#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "common/env.hpp"

namespace sel::obs {

namespace detail {

bool read_env_enabled() { return env::get_bool("SEL_OBS", true); }

namespace {

/// Relaxed CAS add for atomic<double> (fetch_add on floating atomics is
/// C++20 but spotty across standard libraries).
void atomic_add(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace
}  // namespace detail

// -- Histogram ---------------------------------------------------------------

namespace {

/// Default bounds suit millisecond-scale phase timings and small counts.
std::vector<double> default_bounds() {
  return {0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0,
          5.0,   10.0,  50.0, 100.0, 500.0, 1000.0};
}

}  // namespace

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_bounds();
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::vector<std::atomic<std::int64_t>>(bounds_.size() + 1);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void Histogram::observe(double x) noexcept {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, x);
  detail::atomic_min(min_, x);
  detail::atomic_max(max_, x);
}

void Histogram::merge(const LocalHistogram& local) noexcept {
  if (!enabled() || local.t_.count == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (local.counts_[i] != 0) {
      buckets_[i].fetch_add(local.counts_[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(local.t_.count, std::memory_order_relaxed);
  detail::atomic_add(sum_, local.t_.sum);
  detail::atomic_min(min_, local.t_.min);
  detail::atomic_max(max_, local.t_.max);
}

void LocalHistogram::flush() noexcept {
  if (t_.count == 0) return;
  target_->merge(*this);
  std::fill(counts_.begin(), counts_.end(), 0);
  t_ = {};
}

std::vector<std::int64_t> Histogram::counts() const {
  std::vector<std::int64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    out.push_back(b.load(std::memory_order_relaxed));
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// -- Snapshot ----------------------------------------------------------------

std::int64_t Snapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// -- MetricsRegistry ---------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::unique_ptr<Counter>(  // NOLINT(modernize-make-unique): private ctor
                          new Counter(std::string(name))))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name),
                      std::unique_ptr<Gauge>(  // NOLINT(modernize-make-unique): private ctor
                          new Gauge(std::string(name))))
             .first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(  // NOLINT(modernize-make-unique)
                          new Histogram(std::string(name), std::move(bounds))))
             .first;
  }
  return *it->second;
}

Span& MetricsRegistry::span(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = spans_.find(name);
  if (it == spans_.end()) {
    it = spans_
             .emplace(std::string(name),
                      std::unique_ptr<Span>(  // NOLINT(modernize-make-unique): private ctor
                          new Span(std::string(name))))
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.push_back({name, h->bounds(), h->counts(), h->count(),
                               h->sum(), h->min(), h->max()});
  }
  snap.spans.reserve(spans_.size());
  for (const auto& [name, s] : spans_) {
    snap.spans.push_back({name, s->count(), s->total_ns()});
  }
  return snap;
}

std::vector<CounterSnapshot> MetricsRegistry::counters_snapshot() const {
  std::lock_guard lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, c->value()});
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, s] : spans_) s->reset();
}

namespace {

/// Seed-independent report schema: the resource-observability family
/// exists (as zeros) in every global-registry report, even when the run
/// never allocates in a subsystem. Local registries (tests) stay empty —
/// obs_metrics_test asserts exact snapshot sizes.
void preregister_builtin_families(MetricsRegistry& reg) {
  for (const char* sub :
       {"graph", "overlay", "pubsub", "runtime", "tracked"}) {
    reg.gauge(std::string("mem.") + sub + ".live_bytes");
    reg.gauge(std::string("mem.") + sub + ".peak_bytes");
  }
  reg.gauge("mem.rss_bytes");
  reg.gauge("mem.rss_peak_bytes");
  reg.gauge("mem.bytes_per_peer");
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  static const bool preregistered = [] {
    preregister_builtin_families(registry);
    return true;
  }();
  (void)preregistered;
  return registry;
}

}  // namespace sel::obs
