// Deterministic discrete-event executor: the message plane's virtual clock.
//
// Overlay construction runs in protocol rounds; the message plane —
// transfers with real durations, overlapping disseminations — needs
// event-driven time. The EventEngine owns the virtual clock every transport
// and protocol timer schedules against:
//   - events at equal times fire in scheduling order (a monotone sequence
//     number breaks ties), so runs are deterministic;
//   - a non-zero tie seed (Options::tie_seed) replaces the FIFO tie-break
//     with a seeded permutation of equal-time events — the
//     determinism-stress knob: two different tie seeds must produce the
//     same delivered message multiset or the protocol depends on accidental
//     scheduling order;
//   - a bounded drain API (`run_until`, `run`) with a runaway backstop, so
//     drivers can interleave virtual time with churn epochs;
//   - runtime.* observability: events-fired counter, a queue-depth gauge
//     refreshed as the queue drains, and a Perfetto-visible span around
//     every drain (SEL_TRACE_SCOPE "runtime.drain").
//
// Events cost no allocation: a callable is copied into a fixed-size inline
// slot, which is why schedule() accepts only trivially copyable callables of
// at most kMaxCallableBytes (capture ids, indexes and pointers, never owning
// objects). The heap orders small (time, tie, seq, slot) keys; slots are
// recycled through a free list.
//
// Single-threaded by design: determinism comes from the total event order,
// and callbacks are free to schedule more events without synchronization.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/memory.hpp"

namespace sel::runtime {

class EventEngine {
 public:
  /// Largest callable schedule() stores: the widest capture the message
  /// plane uses (the mailbox's store timers).
  static constexpr std::size_t kMaxCallableBytes = 40;

  /// `tie_seed` 0 (default) breaks equal-time ties in schedule order (FIFO);
  /// non-zero seeds permute equal-time firing deterministically.
  explicit EventEngine(std::uint64_t tie_seed = 0) noexcept
      : tie_seed_(tie_seed) {}

  /// Schedules `f(now_s)` at absolute virtual time `time_s` (must not be in
  /// the past).
  template <typename F>
  void schedule(double time_s, F f) {
    static_assert(std::is_trivially_copyable_v<F>,
                  "events are stored inline: capture ids and pointers, not "
                  "owning objects");
    static_assert(sizeof(F) <= kMaxCallableBytes &&
                      alignof(F) <= alignof(Callable),
                  "event capture exceeds the inline slot");
    static_assert(std::is_invocable_v<F&, double>);
    SEL_EXPECTS(time_s >= now_);
    Callable c;
    ::new (static_cast<void*>(c.storage)) F(f);
    c.fire = [](void* storage, double now) {
      (*std::launder(static_cast<F*>(storage)))(now);
    };
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(callables_.size());
      callables_.push_back(c);
    } else {
      slot = free_.back();
      free_.pop_back();
      callables_[slot] = c;
    }
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(Entry{time_s, tie_for(seq), seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] double now_s() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }
  /// Scheduled-but-unfired events (the queue-depth gauge's source).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return heap_.size();
  }

  /// Fires everything due by `t_s`, then advances the clock to `t_s`.
  /// Returns events fired.
  std::size_t run_until(double t_s);

  /// Drains the queue, bounded by `max_events` as a runaway backstop.
  /// Returns events fired.
  std::size_t run(std::size_t max_events = 100'000'000);

 private:
  /// One stored callable: its bytes and the thunk that invokes them.
  struct Callable {
    void (*fire)(void* storage, double now) = nullptr;
    alignas(8) std::byte storage[kMaxCallableBytes]{};
  };

  struct Entry {
    double time;
    std::uint64_t tie;  ///< equal-time ordering key (== seq when unseeded)
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into callables_
  };

  /// Max-heap comparator that puts the earliest (time, tie, seq) at the
  /// front. seq is the final disambiguator so seeded tie keys that collide
  /// still order deterministically.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint64_t tie_for(std::uint64_t seq) const noexcept {
    return tie_seed_ == 0 ? seq : splitmix64(seq ^ tie_seed_);
  }

  /// Pops and fires the earliest event (the heap must be non-empty).
  void fire_next();

  /// Counts fired events and refreshes the runtime.queue_depth gauge.
  void note_drained(std::size_t fired);

  // Pending-event storage, attributed to `mem.runtime`.
  /// Binary heap ordered by Later{} (std::push_heap/std::pop_heap).
  obs::AccountedVector<Entry, obs::Subsystem::kRuntime> heap_;
  obs::AccountedVector<Callable, obs::Subsystem::kRuntime> callables_;
  /// Slots of fired events, reused by later schedules.
  obs::AccountedVector<std::uint32_t, obs::Subsystem::kRuntime> free_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t tie_seed_ = 0;
  double now_ = 0.0;
};

}  // namespace sel::runtime
