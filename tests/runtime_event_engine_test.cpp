// EventEngine unit tests: the drain API (run_until / run with its runaway
// backstop), the event-queue semantics underneath it — time order, FIFO
// ties, the seeded tie permutation, and callbacks that schedule more — the
// inline callable store, its `mem.runtime` attribution, and the calendar
// queue's order checked against a reference priority queue.
#include "runtime/event_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "common/rng.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"

namespace sel::runtime {
namespace {

/// An event that reschedules itself one second later, forever.
void reschedule_forever(EventEngine& e, double now) {
  e.schedule(now + 1.0, [&e](double t) { reschedule_forever(e, t); });
}

double runtime_live_bytes() {
  return obs::memory_values().at("mem.runtime.live_bytes");
}

TEST(EventEngine, RunUntilCountsFiredAndAdvancesClock) {
  EventEngine e;
  int fired = 0;
  e.schedule(1.0, [&fired](double) { ++fired; });
  e.schedule(2.0, [&fired](double) { ++fired; });
  e.schedule(9.0, [&fired](double) { ++fired; });
  EXPECT_EQ(e.run_until(5.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now_s(), 5.0);
  EXPECT_EQ(e.queue_depth(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_TRUE(e.idle());
}

TEST(EventEngine, RunRespectsBackstop) {
  EventEngine e;
  e.schedule(0.0, [&e](double now) { reschedule_forever(e, now); });
  EXPECT_EQ(e.run(25), 25u);
}

TEST(EventEngine, TieSeedPermutesEqualTimeOrderDeterministically) {
  const auto order_with = [](std::uint64_t tie_seed) {
    EventEngine e(tie_seed);
    std::vector<int> order;
    for (int i = 0; i < 12; ++i) {
      e.schedule(1.0, [&order, i](double) { order.push_back(i); });
    }
    e.run();
    return order;
  };
  const auto a = order_with(99);
  EXPECT_EQ(a, order_with(99));
  EXPECT_NE(a, order_with(0));
}

TEST(EventEngine, PendingEventsAreAttributedToRuntimeMemory) {
  const double before = runtime_live_bytes();
  {
    EventEngine e;
    for (int i = 0; i < 64; ++i) e.schedule(1.0 + i, [](double) {});
    EXPECT_GT(runtime_live_bytes(), 0.0);
    EXPECT_GT(runtime_live_bytes(), before);
  }
  EXPECT_EQ(runtime_live_bytes(), before);
}

TEST(EventEngine, PendingEventsAreReleasedOnDestructionAndReplacement) {
  const double before = runtime_live_bytes();
  int fired = 0;
  {
    EventEngine e;
    for (int i = 0; i < 256; ++i) {
      e.schedule(1.0 + i, [&fired](double) { ++fired; });
    }
    EXPECT_GT(runtime_live_bytes(), before);
  }
  EXPECT_EQ(runtime_live_bytes(), before);

  // Replacement, as NotificationEngine::set_runtime_options does it: the
  // old engine's pending events are released and never fire.
  EventEngine e;
  for (int i = 0; i < 256; ++i) {
    e.schedule(1.0 + i, [&fired](double) { ++fired; });
  }
  e = EventEngine(0x5eed);
  EXPECT_EQ(runtime_live_bytes(), before);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventEngine, StoreGrowingUnderACallbackKeepsOrderAndCaptures) {
  // One callback schedules 10,000 events while the store grows under it.
  // Each carries its index, its time and a checksum of both; each must fire
  // exactly once, in (time, seq) order, with every capture intact.
  constexpr std::uint32_t kEvents = 10'000;
  EventEngine e;
  struct Fired {
    std::uint32_t index;
    double time;
    bool intact;
  };
  std::vector<Fired> fired;
  const auto checksum = [](std::uint32_t i, double t) {
    return splitmix64(i ^ std::bit_cast<std::uint64_t>(t));
  };
  e.schedule(0.0, [&e, &fired, checksum](double now) {
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      const double t = now + static_cast<double>(i % 97) * 0.5;
      const std::uint64_t check = checksum(i, t);
      e.schedule(t, [&fired, checksum, i, t, check](double at) {
        fired.push_back({i, at, at == t && check == checksum(i, t)});
      });
    }
  });
  EXPECT_EQ(e.run(), kEvents + 1);
  ASSERT_EQ(fired.size(), kEvents);
  std::vector<bool> seen(kEvents, false);
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_TRUE(fired[k].intact) << "event " << fired[k].index;
    EXPECT_FALSE(seen[fired[k].index]) << "event " << fired[k].index;
    seen[fired[k].index] = true;
    if (k > 0) {
      // Scheduling order is index order, so (time, seq) is (time, index).
      EXPECT_LT(std::tie(fired[k - 1].time, fired[k - 1].index),
                std::tie(fired[k].time, fired[k].index));
    }
  }
}

// -- event-queue semantics ----------------------------------------------------

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventEngine q;
  EXPECT_TRUE(q.idle());
  EXPECT_DOUBLE_EQ(q.now_s(), 0.0);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, FiresInTimeOrder) {
  EventEngine q;
  std::vector<int> order;
  q.schedule(3.0, [&order](double) { order.push_back(3); });
  q.schedule(1.0, [&order](double) { order.push_back(1); });
  q.schedule(2.0, [&order](double) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventEngine q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i](double) { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesToEventTime) {
  EventEngine q;
  double seen = -1.0;
  q.schedule(5.5, [&seen](double now) { seen = now; });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(q.now_s(), 5.5);
}

/// Counts itself, then reschedules one second later until it fired four
/// times.
void chain(EventEngine& q, int& fired, double now) {
  ++fired;
  if (fired < 4) {
    q.schedule(now + 1.0, [&q, &fired](double t) { chain(q, fired, t); });
  }
}

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventEngine q;
  int fired = 0;
  q.schedule(1.0, [&q, &fired](double now) { chain(q, fired, now); });
  const std::size_t count = q.run();
  EXPECT_EQ(count, 4u);
  EXPECT_DOUBLE_EQ(q.now_s(), 4.0);
}

TEST(EventQueue, RunUntilFiresOnlyDueEvents) {
  EventEngine q;
  int fired = 0;
  q.schedule(1.0, [&fired](double) { ++fired; });
  q.schedule(2.0, [&fired](double) { ++fired; });
  q.schedule(5.0, [&fired](double) { ++fired; });
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now_s(), 2.5);
  EXPECT_EQ(q.queue_depth(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
  EventEngine q;
  EXPECT_EQ(q.run_until(10.0), 0u);
  EXPECT_DOUBLE_EQ(q.now_s(), 10.0);
}

TEST(EventQueue, RunAllRespectsBackstop) {
  EventEngine q;
  q.schedule(0.0, [&q](double now) { reschedule_forever(q, now); });
  EXPECT_EQ(q.run(100), 100u);
}

TEST(EventQueue, CallbackStateSurvivesInterleavedPopsAndPushes) {
  // Regression for the const_cast-move out of priority_queue::top(): the
  // callback was moved from the (const) heap top in place, so a pop
  // interleaved with pushes could sift a hollowed-out entry and invoke it.
  // With inline storage the same hazard is a slot reused or grown while its
  // event fires. Each callback carries a pointer to its payload; a hollow
  // invocation shows up as a null payload or a missing value.
  EventEngine q;
  std::vector<int> fired;
  constexpr int kEvents = 50;
  std::vector<int> payloads(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    payloads[static_cast<std::size_t>(i)] = i;
    const int* payload = &payloads[static_cast<std::size_t>(i)];
    q.schedule(static_cast<double>(i % 7),
               [&q, &fired, payload](double now) {
                 ASSERT_NE(payload, nullptr);
                 fired.push_back(*payload);
                 if (*payload % 3 == 0) {
                   q.schedule(now + 0.25,
                              [&fired](double) { fired.push_back(-1); });
                 }
               });
  }
  q.run();
  std::vector<int> primary;
  for (const int v : fired) {
    if (v >= 0) primary.push_back(v);
  }
  std::sort(primary.begin(), primary.end());
  ASSERT_EQ(primary.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) EXPECT_EQ(primary[i], i);
  EXPECT_EQ(fired.size() - primary.size(),
            static_cast<std::size_t>((kEvents + 2) / 3));
}

TEST(EventQueue, PastSchedulingAborts) {
  EventEngine q;
  q.run_until(5.0);
  EXPECT_DEATH(q.schedule(1.0, [](double) {}), "Precondition");
}

TEST(EventQueue, EqualTimeFifoHoldsAcrossMidRunScheduling) {
  // Regression: a callback scheduling events *at the current time* while
  // the queue is mid-drain must still see them fire after every
  // already-scheduled equal-time event (FIFO by sequence number).
  EventEngine q;
  std::vector<int> order;
  q.schedule(1.0, [&](double now) {
    order.push_back(0);
    q.schedule(now, [&order](double) { order.push_back(10); });
    q.schedule(now, [&order](double) { order.push_back(11); });
  });
  q.schedule(1.0, [&order](double) { order.push_back(1); });
  q.schedule(1.0, [&order](double) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11}));
}

TEST(EventQueue, SeededTieBreakPermutesEqualTimeOrder) {
  const auto order_with_seed = [](std::uint64_t seed) {
    EventEngine q(seed);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      q.schedule(1.0, [&order, i](double) { order.push_back(i); });
    }
    q.run();
    return order;
  };
  const auto fifo = order_with_seed(0);
  const auto seeded = order_with_seed(0x5eed);
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(fifo, expected);
  // Same multiset, different order — and reproducible per seed.
  auto sorted = seeded;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected);
  EXPECT_NE(seeded, expected);
  EXPECT_EQ(order_with_seed(0x5eed), seeded);
}

TEST(EventQueue, SeededTieBreakKeepsTimeOrder) {
  EventEngine q(0x5eed);
  std::vector<int> order;
  q.schedule(3.0, [&order](double) { order.push_back(3); });
  q.schedule(1.0, [&order](double) { order.push_back(1); });
  q.schedule(2.0, [&order](double) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// -- order oracle -------------------------------------------------------------
//
// The calendar queue must pop exactly the least (time, tie, seq) key, the
// order a binary heap gives. Each case drives the same seeded script twice:
// once on an EventEngine and once on a test-local std::priority_queue over
// (time, tie_for(seq), seq). An event's id is its schedule index, which is
// the engine's seq; when it fires, the script may schedule more events from
// the callback, and both runs must fire the same ids at the same times.

/// Children an event schedules when it fires: absolute times >= now.
using Spawn = std::function<std::vector<double>(std::uint64_t id, double now)>;

/// One run of a script on the engine (`oracle` false) or on the reference
/// queue; records the (id, time) firing order.
class OrderRun {
 public:
  OrderRun(std::uint64_t tie_seed, bool oracle, Spawn spawn)
      : engine_(tie_seed),
        tie_seed_(tie_seed),
        oracle_(oracle),
        spawn_(std::move(spawn)) {}

  void schedule(double t) {
    const std::uint64_t id = next_id_++;
    if (oracle_) {
      ref_.push({t, tie_seed_ == 0 ? id : splitmix64(id ^ tie_seed_), id});
    } else {
      engine_.schedule(t, [this, id](double now) { fired(id, now); });
    }
  }

  void run_until(double t) {
    if (!oracle_) {
      engine_.run_until(t);
      return;
    }
    while (!ref_.empty() && std::get<0>(ref_.top()) <= t) pop();
    now_ = t;
  }

  void run() {
    if (!oracle_) {
      engine_.run();
      return;
    }
    while (!ref_.empty()) pop();
  }

  [[nodiscard]] double now() const {
    return oracle_ ? now_ : engine_.now_s();
  }
  [[nodiscard]] std::size_t pending() const {
    return oracle_ ? ref_.size() : engine_.queue_depth();
  }

  std::vector<std::pair<std::uint64_t, double>> order;

 private:
  using Key = std::tuple<double, std::uint64_t, std::uint64_t>;

  void pop() {
    const auto [t, tie, id] = ref_.top();
    ref_.pop();
    now_ = t;
    fired(id, t);
  }

  void fired(std::uint64_t id, double now) {
    order.emplace_back(id, now);
    for (const double t : spawn_(id, now)) schedule(t);
  }

  EventEngine engine_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
  std::uint64_t tie_seed_;
  bool oracle_;
  Spawn spawn_;
  std::uint64_t next_id_ = 0;
  double now_ = 0.0;
};

/// Runs `drive` on the engine and on the reference queue, for FIFO ties and
/// one seeded tie order, and requires identical firing orders.
void expect_oracle_order(
    const Spawn& spawn, const std::function<void(OrderRun&)>& drive) {
  for (const std::uint64_t tie_seed :
       {std::uint64_t{0}, std::uint64_t{0x5eed}}) {
    OrderRun engine(tie_seed, /*oracle=*/false, spawn);
    OrderRun oracle(tie_seed, /*oracle=*/true, spawn);
    drive(engine);
    drive(oracle);
    ASSERT_EQ(engine.order.size(), oracle.order.size())
        << "tie seed " << tie_seed;
    for (std::size_t i = 0; i < oracle.order.size(); ++i) {
      ASSERT_EQ(engine.order[i], oracle.order[i])
          << "event " << i << ", tie seed " << tie_seed;
    }
    EXPECT_EQ(engine.pending(), oracle.pending());
    EXPECT_FALSE(oracle.order.empty());
  }
}

/// A seeded spawn: each event has 0-2 children until `cap` ids exist. Delays
/// are zero (a child at `now`), on a coarse grid (equal-time bursts), small
/// and continuous, or `far_s` ahead (beyond any bucket year).
Spawn seeded_spawn(std::uint64_t seed, std::uint64_t cap, double far_s) {
  return [seed, cap, far_s](std::uint64_t id, double now) {
    std::vector<double> out;
    if (id >= cap) return out;
    Rng rng(derive_seed(seed, id));
    const std::size_t children = rng.below(8) < 3 ? 0 : 1 + rng.below(2);
    for (std::size_t c = 0; c < children; ++c) {
      const std::uint64_t kind = rng.below(20);
      if (kind < 4) {
        out.push_back(now);
      } else if (kind < 9) {
        out.push_back(std::floor(now) + 1.0 +
                      static_cast<double>(rng.below(3)));
      } else if (kind < 19) {
        out.push_back(now + rng.uniform() * 0.5);
      } else {
        out.push_back(now + far_s * (1.0 + rng.uniform()));
      }
    }
    return out;
  };
}

TEST(EventOracle, SeededRandomSchedulesMatchAPriorityQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    expect_oracle_order(seeded_spawn(seed, 40'000, 500.0), [seed](OrderRun& r) {
      Rng rng(seed);
      for (int i = 0; i < 3'000; ++i) {
        r.schedule(std::floor(rng.uniform() * 200.0) * 0.25);
      }
      // Drains that stop between events, with fresh schedules in between.
      for (double t = 0.0; t < 120.0; t += 3.7) {
        r.run_until(t);
        for (int i = 0; i < 20; ++i) r.schedule(t + rng.uniform() * 10.0);
      }
      r.run();
    });
  }
}

TEST(EventOracle, EqualTimeBurstsAndSchedulesAtNow) {
  // 64 events at each of 40 times; every fourth one schedules two more at
  // its own time, which must fire after every event already due then.
  const Spawn spawn = [](std::uint64_t id, double now) {
    return id % 4 == 0 && id < 4'000 ? std::vector<double>{now, now}
                                     : std::vector<double>{};
  };
  expect_oracle_order(spawn, [](OrderRun& r) {
    for (int i = 0; i < 64 * 40; ++i) r.schedule(static_cast<double>(i % 40));
    r.run();
  });
}

TEST(EventOracle, TimersBeyondABucketYearForceTheDirectSearch) {
  // A dense cluster sets a fine width; the timers lie millions of buckets
  // ahead, so popping them takes an empty lap and a direct search, and
  // run_until stops short of them with a full lap to spare.
  const Spawn spawn = [](std::uint64_t id, double now) {
    return id < 600 && id % 50 == 0 ? std::vector<double>{now + 1e6 + id}
                                    : std::vector<double>{};
  };
  expect_oracle_order(spawn, [](OrderRun& r) {
    for (int i = 0; i < 2'000; ++i) r.schedule(static_cast<double>(i) * 1e-3);
    r.schedule(5e6);
    r.schedule(5e6);
    r.run_until(10.0);
    r.run_until(2e6);
    r.schedule(r.now() + 1e-3);
    r.run();
  });
}

TEST(EventOracle, EmptiesAndRefillsAcrossTheBucketFloor) {
  // Five fill-and-drain cycles: 6,000 events grow the buckets well past the
  // floor, partial drains shrink them again, and the queue runs empty
  // before each refill, whose times sit at or after the clock.
  const Spawn spawn = [](std::uint64_t id, double now) {
    if (id % 7 != 0) return std::vector<double>{};
    return std::vector<double>{now + 0.01 * static_cast<double>(id % 13)};
  };
  expect_oracle_order(spawn, [](OrderRun& r) {
    Rng rng(9);
    for (int cycle = 0; cycle < 5; ++cycle) {
      const double base = r.now();
      const double span = cycle % 2 == 0 ? 30.0 : 0.3;
      for (int i = 0; i < 6'000; ++i) r.schedule(base + rng.uniform() * span);
      for (int step = 1; step <= 4; ++step) {
        r.run_until(base + span * step / 5.0);
      }
      for (int i = 0; i < 100; ++i) r.schedule(r.now() + rng.uniform());
      r.run();
      EXPECT_EQ(r.pending(), 0u);
    }
  });
}

TEST(EventOracle, RunUntilShortOfTheNextEventThenScheduleBetween) {
  const Spawn none = [](std::uint64_t, double) {
    return std::vector<double>{};
  };
  expect_oracle_order(none, [](OrderRun& r) {
    for (int i = 0; i < 600; ++i) r.schedule(100.0 + static_cast<double>(i));
    r.run_until(50.0);
    EXPECT_TRUE(r.order.empty());
    // Between the clock and the next event: these fire first, in order.
    r.schedule(99.5);
    r.schedule(50.0);
    r.schedule(75.0);
    r.run_until(99.9);
    r.schedule(99.95);
    r.run();
  });
  EventEngine e;
  std::vector<double> fired;
  e.schedule(100.0, [&fired](double now) { fired.push_back(now); });
  e.run_until(50.0);
  e.schedule(60.0, [&fired](double now) { fired.push_back(now); });
  e.schedule(50.0, [&fired](double now) { fired.push_back(now); });
  e.run();
  EXPECT_EQ(fired, (std::vector<double>{50.0, 60.0, 100.0}));
}

TEST(EventOracle, FullChecksHoldThroughResizes) {
  // SEL_CHECK=full checks every fired key against the last one and every
  // rebuilt bucket list (runtime.queue.monotone).
  const check::ScopedLevel full(check::Level::kFull);
  const check::ScopedFailureCapture capture;
  const auto& validations =
      obs::MetricsRegistry::global().counter("check.validations");
  const std::int64_t before = validations.value();
  expect_oracle_order(seeded_spawn(4, 20'000, 50.0), [](OrderRun& r) {
    for (int i = 0; i < 5'000; ++i) {
      r.schedule(static_cast<double>(i % 500) * 0.1);
    }
    r.run();
  });
  EXPECT_TRUE(capture.empty()) << capture.violations().front().detail;
  EXPECT_GT(validations.value() - before, 20'000);
}

}  // namespace
}  // namespace sel::runtime
