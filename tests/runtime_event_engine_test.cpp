// EventEngine unit tests: the drain API (run_until / run with its runaway
// backstop) and the event-queue semantics underneath it — time order, FIFO
// ties, the seeded tie permutation, and callbacks that schedule more.
#include "runtime/event_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

namespace sel::runtime {
namespace {

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
  std::function<void(double)> forever = [&](double now) {
    e.schedule(now + 1.0, forever);
  };
  e.schedule(0.0, forever);
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

TEST(EventQueue, CallbacksCanScheduleMore) {
  EventEngine q;
  int fired = 0;
  std::function<void(double)> chain = [&](double now) {
    ++fired;
    if (fired < 4) q.schedule(now + 1.0, chain);
  };
  q.schedule(1.0, chain);
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
  std::function<void(double)> forever = [&](double now) {
    q.schedule(now + 1.0, forever);
  };
  q.schedule(0.0, forever);
  EXPECT_EQ(q.run(100), 100u);
}

TEST(EventQueue, CallbackStateSurvivesInterleavedPopsAndPushes) {
  // Regression for the const_cast-move out of priority_queue::top(): the
  // callback was moved from the (const) heap top in place, so a pop
  // interleaved with pushes could sift a hollowed-out entry and invoke it.
  // Each callback owns its payload through a shared_ptr; a hollow
  // invocation shows up as a null payload or a missing value.
  EventEngine q;
  std::vector<int> fired;
  constexpr int kEvents = 50;
  for (int i = 0; i < kEvents; ++i) {
    auto payload = std::make_shared<int>(i);
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

}  // namespace
}  // namespace sel::runtime
