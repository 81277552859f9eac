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
//     every drain (SEL_TRACE_SCOPE "runtime.drain"); a drain hook lets the
//     owner fold its own per-event tallies into the registry once per drain.
//
// Events cost no allocation: a callable is copied into a fixed-size inline
// slot, which is why schedule() accepts only trivially copyable callables of
// at most kMaxCallableBytes (capture ids, indexes and pointers, never owning
// objects). Slots are recycled through a free list.
//
// The queue is a calendar queue (Brown, CACM 1988): it pops in amortised
// O(1) because virtual time never runs backwards. An event's virtual bucket
// is the integer vb = floor(time / width); it sits in bucket vb & (n - 1),
// in a list sorted by the full (time, tie, seq) key. No pending vb is below
// cur_, so the head of bucket cur_ is the least key exactly when its vb
// equals cur_; after a lap of n buckets without one, every event is a year
// or more ahead and the least bucket head is taken directly. The order is
// thus the exact key order whatever the width. Buckets are allocated on the
// first schedule, number at least kMinBuckets, double above two events per
// bucket and halve below a quarter; each resize takes the width from the
// separations of the earliest kWidthSample distinct pending times.
//
// Single-threaded by design: determinism comes from the total event order,
// and callbacks are free to schedule more events without synchronization.
#pragma once

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
    push(time_s, c);
  }

  [[nodiscard]] double now_s() const noexcept { return now_; }
  [[nodiscard]] bool idle() const noexcept { return size_ == 0; }
  /// Scheduled-but-unfired events (the queue-depth gauge's source).
  [[nodiscard]] std::size_t queue_depth() const noexcept { return size_; }

  /// Fires everything due by `t_s`, then advances the clock to `t_s`.
  /// Returns events fired.
  std::size_t run_until(double t_s);

  /// Drains the queue, bounded by `max_events` as a runaway backstop.
  /// Returns events fired.
  std::size_t run(std::size_t max_events = 100'000'000);

  /// Calls `hook(ctx)` at the end of every drain (null clears it): where
  /// the notification engine folds its per-hop tallies into the registry.
  void set_drain_hook(void (*hook)(void*), void* ctx) noexcept {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kMinBuckets = 256;
  static constexpr std::size_t kWidthSample = 25;

  /// One stored callable: its bytes and the thunk that invokes them.
  struct Callable {
    void (*fire)(void* storage, double now) = nullptr;
    alignas(8) std::byte storage[kMaxCallableBytes]{};
  };

  /// Firing order: time, then the tie key (== seq when unseeded), then seq,
  /// so seeded tie keys that collide still order deterministically.
  struct Key {
    double time;
    std::uint64_t tie;
    std::uint64_t seq;
    friend bool operator<(const Key& a, const Key& b) noexcept {
      if (a.time != b.time) return a.time < b.time;
      if (a.tie != b.tie) return a.tie < b.tie;
      return a.seq < b.seq;
    }
  };

  /// A pending key and the next slot in its bucket list (kNil ends it); the
  /// callable sits at the same index in callables_, so walks read keys only.
  struct Node {
    Key key;
    std::uint32_t next;
  };

  [[nodiscard]] std::uint64_t tie_for(std::uint64_t seq) const noexcept {
    return tie_seed_ == 0 ? seq : splitmix64(seq ^ tie_seed_);
  }

  /// vb = floor(time_s / width), saturated so that far-future times stay
  /// representable (the order stays exact: vb need only be monotone).
  [[nodiscard]] std::int64_t virtual_bucket(double time_s) const noexcept {
    const double vb = time_s * inv_width_;
    return static_cast<std::int64_t>(vb < 0x1p62 ? vb : 0x1p62);
  }
  std::uint32_t& head_of(double time_s) noexcept {
    return heads_[static_cast<std::size_t>(virtual_bucket(time_s)) &
                  (heads_.size() - 1)];
  }

  /// Stores and links one event (the non-template half of schedule()).
  void push(double time_s, const Callable& c);
  /// The slot of the least pending key if its vb is at most vb(t_s), else
  /// kNil. Moves cur_ to that slot's vb and never leaves it above vb(t_s),
  /// so events scheduled at or after t_s keep vb >= cur_.
  std::uint32_t next_due(double t_s);
  /// Unlinks and fires slot `s`, the head of bucket cur_.
  void fire(std::uint32_t s);
  /// Relinks every pending event into `buckets` lists with a fresh width;
  /// SEL_CHECK=full then checks the lists (runtime.queue.monotone).
  void resize(std::size_t buckets);
  /// Fires at most `max_events` events due by `t_s`, then counts them,
  /// refreshes the runtime.queue_depth gauge and runs the drain hook.
  std::size_t drain(double t_s, std::size_t max_events);

  // Pending-event storage, attributed to `mem.runtime`.
  /// Bucket list heads (slot indexes); empty until the first schedule.
  obs::AccountedVector<std::uint32_t, obs::Subsystem::kRuntime> heads_;
  obs::AccountedVector<Node, obs::Subsystem::kRuntime> nodes_;
  obs::AccountedVector<Callable, obs::Subsystem::kRuntime> callables_;
  /// Slots of fired events, reused by later schedules.
  obs::AccountedVector<std::uint32_t, obs::Subsystem::kRuntime> free_;
  std::size_t size_ = 0;
  double inv_width_ = 1.0;  ///< buckets per virtual second
  std::int64_t cur_ = 0;    ///< no pending event has a smaller vb
  std::uint64_t next_seq_ = 0;
  std::uint64_t tie_seed_ = 0;
  double now_ = 0.0;
  /// SEL_CHECK=full (runtime.queue.monotone): the last fired key, and the
  /// first seq scheduled after it fired.
  Key last_{-1.0, 0, 0};
  std::uint64_t last_mark_ = 0;
  void (*hook_)(void*) = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace sel::runtime
