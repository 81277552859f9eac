// Span recorder for the benchmark's own layer boundaries.
//
// The traced run wraps every call the pipeline makes into a layer (select,
// overlay, pubsub, runtime, ...) in a Scope. Spans are kept in memory —
// name, start, end and the enclosing span — and summarized once the run
// ends: count, total time, self time (total minus the time covered by
// child spans) and the duration samples the percentiles come from.
//
// Disabled (the untraced run), a Scope takes no clock reads, so the
// end-to-end numbers carry no tracing cost.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the numpy default); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

class Recorder {
 public:
  /// Per-name aggregate of the recorded spans.
  struct Layer {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    std::vector<double> durations_s;
  };

  class Scope {
   public:
    Scope(Recorder& rec, const char* name) : rec_(&rec) {
      if (!rec.enabled_) return;
      index_ = static_cast<std::int32_t>(rec.spans_.size());
      rec.spans_.push_back(Span{name, rec.open_, Clock::now(), {}});
      rec.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      auto& span = rec_->spans_[static_cast<std::size_t>(index_)];
      span.end = Clock::now();
      rec_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;
    std::int32_t index_ = -1;
  };

  explicit Recorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Aggregates spans by name. Self time subtracts each span's direct
  /// children, which never overlap (one thread, strictly nested scopes).
  [[nodiscard]] std::map<std::string, Layer> layers() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            std::chrono::duration<double>(s.end - s.start).count();
      }
    }
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double d = std::chrono::duration<double>(s.end - s.start).count();
      auto& layer = out[s.name];
      ++layer.count;
      layer.total_s += d;
      layer.self_s += d - child_s[i];
      layer.durations_s.push_back(d);
    }
    return out;
  }

 private:
  struct Span {
    const char* name;  ///< string literal; also the aggregation key
    std::int32_t parent;  ///< index into spans_, -1 for a root span
    Clock::time_point start;
    Clock::time_point end;
  };

  bool enabled_;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
