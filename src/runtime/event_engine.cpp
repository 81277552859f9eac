#include "runtime/event_engine.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sel::runtime {

namespace {

obs::Counter& events_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("runtime.events_fired");
  return c;
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("runtime.queue_depth");
  return g;
}

}  // namespace

void EventEngine::fire_next() {
  // pop_heap rotates the earliest entry to the back, where it is mutable
  // and can be moved out before invoking (the callback may schedule more).
  // An earlier version const_cast-moved out of priority_queue::top(), which
  // mutates the const heap top in place — UB-adjacent and flagged by
  // clang-tidy/UBSan builds.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  now_ = entry.time;
  entry.callback(now_);
}

void EventEngine::note_drained(std::size_t fired) {
  if (fired != 0) events_counter().add(static_cast<std::int64_t>(fired));
  queue_depth_gauge().set(static_cast<double>(heap_.size()));
}

std::size_t EventEngine::run_until(double t_s) {
  SEL_TRACE_SCOPE("runtime.drain");
  SEL_EXPECTS(t_s >= now_);
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.front().time <= t_s) {
    fire_next();
    ++fired;
  }
  now_ = t_s;
  note_drained(fired);
  return fired;
}

std::size_t EventEngine::run(std::size_t max_events) {
  SEL_TRACE_SCOPE("runtime.drain");
  std::size_t fired = 0;
  while (fired < max_events && !heap_.empty()) {
    fire_next();
    ++fired;
  }
  note_drained(fired);
  return fired;
}

}  // namespace sel::runtime
