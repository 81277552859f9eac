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
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Copied out before the call: the callback may schedule more events,
  // which can reuse this slot or grow the store under it.
  Callable c = callables_[entry.slot];
  free_.push_back(entry.slot);
  now_ = entry.time;
  c.fire(c.storage, now_);
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
