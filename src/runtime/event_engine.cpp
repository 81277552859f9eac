#include "runtime/event_engine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "check/check.hpp"
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

/// SEL_CHECK=full's runtime.queue.monotone invariant; `detail()` names a
/// breach.
template <typename Detail>
void check_queue(bool holds, Detail detail) {
  check::enforce(holds ? check::Result{}
                       : check::Violation{"runtime.queue.monotone", detail()});
}

}  // namespace

void EventEngine::push(double time_s, const Callable& c) {
  if (heads_.empty()) {
    heads_.assign(kMinBuckets, kNil);
    cur_ = virtual_bucket(now_);
  }
  const std::uint64_t seq = next_seq_++;
  const Node node{Key{time_s, tie_for(seq), seq}, kNil};
  std::uint32_t s;
  if (free_.empty()) {
    s = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(node);
    callables_.push_back(c);
  } else {
    s = free_.back();
    free_.pop_back();
    nodes_[s] = node;
    callables_[s] = c;
  }
  std::uint32_t* at = &head_of(time_s);
  while (*at != kNil && nodes_[*at].key < node.key) at = &nodes_[*at].next;
  nodes_[s].next = *at;
  *at = s;
  if (++size_ > 2 * heads_.size()) resize(2 * heads_.size());
}

std::uint32_t EventEngine::next_due(double t_s) {
  const std::int64_t limit = virtual_bucket(t_s);
  const std::size_t mask = heads_.size() - 1;
  for (std::size_t lap = 0; lap < heads_.size(); ++lap, ++cur_) {
    if (cur_ > limit) {
      cur_ = limit;
      return kNil;
    }
    const std::uint32_t h = heads_[static_cast<std::size_t>(cur_) & mask];
    if (h != kNil && virtual_bucket(nodes_[h].key.time) == cur_) return h;
  }
  // An empty lap: every pending event is a year or more ahead, and the
  // least key is the least bucket head.
  std::uint32_t best = kNil;
  for (const std::uint32_t h : heads_) {
    if (h != kNil && (best == kNil || nodes_[h].key < nodes_[best].key)) {
      best = h;
    }
  }
  const std::int64_t vb = virtual_bucket(nodes_[best].key.time);
  cur_ = std::min(vb, limit);
  return vb <= limit ? best : kNil;
}

void EventEngine::fire(std::uint32_t s) {
  const Node& node = nodes_[s];
  heads_[static_cast<std::size_t>(cur_) & (heads_.size() - 1)] = node.next;
  --size_;
  now_ = node.key.time;
  if (check::enabled(check::Level::kFull)) {
    // Keys rise from one firing to the next, except that an event
    // scheduled since the last one fired may win an equal-time seeded tie.
    check_queue(last_ < node.key || node.key.seq >= last_mark_, [&] {
      return "seq " + std::to_string(node.key.seq) + " fired out of order";
    });
    last_ = node.key;
    last_mark_ = next_seq_;
  }
  // Copied out before the call: the callback may schedule more events,
  // which can reuse this slot or grow the store under it.
  Callable c = callables_[s];
  free_.push_back(s);
  if (heads_.size() > kMinBuckets && size_ < heads_.size() / 4) {
    resize(heads_.size() / 2);
  }
  c.fire(c.storage, now_);
}

void EventEngine::resize(std::size_t buckets) {
  std::vector<std::uint32_t> pending;
  pending.reserve(size_);
  for (const std::uint32_t h : heads_) {
    for (std::uint32_t s = h; s != kNil; s = nodes_[s].next) {
      pending.push_back(s);
    }
  }
  std::sort(pending.begin(), pending.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return nodes_[a].key < nodes_[b].key;
            });
  // Brown's width: three mean separations of the earliest distinct times,
  // leaving out separations above twice their first mean. (Equal times
  // would read as separation zero and pile the queue into a few buckets.)
  std::vector<double> t;
  for (std::size_t i = 0; i < pending.size() && t.size() < kWidthSample; ++i) {
    const double ti = nodes_[pending[i]].key.time;
    if (t.empty() || ti != t.back()) t.push_back(ti);
  }
  if (t.size() >= 2) {
    const double cap =
        2.0 * (t.back() - t.front()) / static_cast<double>(t.size() - 1);
    double sum = 0.0;
    double kept = 0.0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      const double gap = t[i] - t[i - 1];
      if (gap <= cap) {
        sum += gap;
        kept += 1.0;
      }
    }
    inv_width_ = kept / (3.0 * sum);
  }
  heads_.assign(buckets, kNil);
  cur_ = virtual_bucket(now_);
  // Linking in descending key order puts each slot at the head of its list.
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    std::uint32_t& head = head_of(nodes_[*it].key.time);
    nodes_[*it].next = head;
    head = *it;
  }
  if (!check::enabled(check::Level::kFull)) return;
  // Every pending event is linked once, in key order, in its own bucket.
  std::size_t linked = 0;
  bool in_order = true;
  for (std::uint32_t& head : heads_) {
    for (std::uint32_t s = head; s != kNil; s = nodes_[s].next, ++linked) {
      const Node& n = nodes_[s];
      in_order = in_order && &head_of(n.key.time) == &head &&
                 virtual_bucket(n.key.time) >= cur_ &&
                 (n.next == kNil || n.key < nodes_[n.next].key);
    }
  }
  check_queue(in_order && linked == size_, [&] {
    return std::to_string(linked) + " of " + std::to_string(size_) +
           " events linked, in order: " + std::to_string(in_order);
  });
}

std::size_t EventEngine::drain(double t_s, std::size_t max_events) {
  SEL_TRACE_SCOPE("runtime.drain");
  std::size_t fired = 0;
  for (; fired < max_events && size_ != 0; ++fired) {
    const std::uint32_t s = next_due(t_s);
    if (s == kNil || nodes_[s].key.time > t_s) break;
    fire(s);
  }
  if (fired != 0) events_counter().add(static_cast<std::int64_t>(fired));
  queue_depth_gauge().set(static_cast<double>(size_));
  if (hook_ != nullptr) hook_(hook_ctx_);
  return fired;
}

std::size_t EventEngine::run_until(double t_s) {
  SEL_EXPECTS(t_s >= now_);
  const std::size_t fired =
      drain(t_s, std::numeric_limits<std::size_t>::max());
  now_ = t_s;
  return fired;
}

std::size_t EventEngine::run(std::size_t max_events) {
  return drain(std::numeric_limits<double>::infinity(), max_events);
}

}  // namespace sel::runtime
