// Resource observability tests: tagged-allocator attribution, MemScope
// nesting, SEL_MEM_BUDGET soft-fail, and the run report's memory section.
//
// This file gets its own test binary (tests_obs_memory): the budget knob is
// parsed once per process from SEL_MEM_BUDGET, so the static initializer
// below must run before anything else touches mem_budget_bytes().
#include "obs/memory.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "check/memory_checks.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace sel::obs {
namespace {

// Arm a tiny budget before any lazy parse (mem_budget_bytes caches on
// first call). 4 KiB: small enough for a test vector to overrun, large
// enough that an empty tracker sits below it.
const bool kBudgetEnvArmed = [] {
  ::setenv("SEL_MEM_BUDGET", "4k", 1);
  return true;
}();

TEST(Subsystem, NamesAreStable) {
  EXPECT_STREQ(subsystem_name(Subsystem::kGraph), "graph");
  EXPECT_STREQ(subsystem_name(Subsystem::kOverlay), "overlay");
  EXPECT_STREQ(subsystem_name(Subsystem::kPubsub), "pubsub");
  EXPECT_STREQ(subsystem_name(Subsystem::kRuntime), "runtime");
  EXPECT_STREQ(subsystem_name(Subsystem::kOther), "other");
}

TEST(Accounted, AttributionRoundTripsToZero) {
  auto& tracker = MemTracker::global();
  const std::int64_t before = tracker.live_bytes(Subsystem::kRuntime);
  const std::int64_t total_before = tracker.total_live_bytes();
  {
    AccountedVector<std::uint64_t, Subsystem::kRuntime> v;
    v.reserve(1000);
    EXPECT_GE(tracker.live_bytes(Subsystem::kRuntime),
              before + static_cast<std::int64_t>(1000 * sizeof(std::uint64_t)));
    // Growth reallocations charge and discharge the same subsystem.
    v.resize(5000);
    EXPECT_GE(tracker.live_bytes(Subsystem::kRuntime),
              before + static_cast<std::int64_t>(5000 * sizeof(std::uint64_t)));
  }
  // Exactness: after a full alloc/free round-trip the subsystem (and the
  // total) are back to their starting bytes, bit for bit.
  EXPECT_EQ(tracker.live_bytes(Subsystem::kRuntime), before);
  EXPECT_EQ(tracker.total_live_bytes(), total_before);
}

TEST(Accounted, CopyAndMoveKeepAttributionBalanced) {
  auto& tracker = MemTracker::global();
  const std::int64_t before = tracker.live_bytes(Subsystem::kRuntime);
  {
    AccountedVector<int, Subsystem::kRuntime> a(1024, 7);
    AccountedVector<int, Subsystem::kRuntime> b = a;          // copy
    AccountedVector<int, Subsystem::kRuntime> c = std::move(a);  // move
    b.swap(c);
    EXPECT_GE(tracker.live_bytes(Subsystem::kRuntime),
              before + static_cast<std::int64_t>(2 * 1024 * sizeof(int)));
  }
  EXPECT_EQ(tracker.live_bytes(Subsystem::kRuntime), before);
}

TEST(MemScope, DynamicTagFollowsInnermostScope) {
  auto& tracker = MemTracker::global();
  EXPECT_EQ(MemScope::current(), Subsystem::kOther);
  const std::int64_t pubsub_before = tracker.live_bytes(Subsystem::kPubsub);
  const std::int64_t graph_before = tracker.live_bytes(Subsystem::kGraph);
  const std::int64_t other_before = tracker.live_bytes(Subsystem::kOther);
  {
    std::vector<int, Accounted<int>> outer;
    {
      MemScope scope(Subsystem::kPubsub);
      EXPECT_EQ(MemScope::current(), Subsystem::kPubsub);
      // The tag is captured at allocator construction, not per allocation:
      // `outer` predates the scope, so it charges kOther even while the
      // scope is active.
      outer.reserve(100);
      std::vector<int, Accounted<int>> inner;
      {
        MemScope nested(Subsystem::kGraph);
        std::vector<int, Accounted<int>> innermost(200);
        EXPECT_EQ(tracker.live_bytes(Subsystem::kGraph),
                  graph_before +
                      static_cast<std::int64_t>(200 * sizeof(int)));
      }
      EXPECT_EQ(MemScope::current(), Subsystem::kPubsub);  // nesting pops
      inner.resize(300);
      EXPECT_GE(tracker.live_bytes(Subsystem::kPubsub),
                pubsub_before +
                    static_cast<std::int64_t>(300 * sizeof(int)));
    }
    // `outer` still holds its kOther-tagged buffer after the scope died;
    // the tag travels with the allocator, so the discharge stays balanced.
    EXPECT_GE(tracker.live_bytes(Subsystem::kOther),
              other_before + static_cast<std::int64_t>(100 * sizeof(int)));
  }
  EXPECT_EQ(tracker.live_bytes(Subsystem::kPubsub), pubsub_before);
  EXPECT_EQ(tracker.live_bytes(Subsystem::kGraph), graph_before);
  EXPECT_EQ(tracker.live_bytes(Subsystem::kOther), other_before);
}

TEST(MemTracker, PeakTracksInterleavedHighWater) {
  // Only this file allocates under kRuntime here (no event engine runs in
  // this binary), and earlier tests release what they charge, so live
  // bytes are exact and the peak moves only when live bytes pass it.
  auto& tracker = MemTracker::global();
  const std::int64_t live_before = tracker.live_bytes(Subsystem::kRuntime);
  constexpr std::int64_t kBig = 64 * 1024;
  constexpr std::int64_t kSmall = 16 * 1024;
  {
    AccountedVector<char, Subsystem::kRuntime> big(kBig);
    EXPECT_GE(tracker.peak_bytes(Subsystem::kRuntime), live_before + kBig);
  }
  const std::int64_t peak_after_big = tracker.peak_bytes(Subsystem::kRuntime);
  {
    AccountedVector<char, Subsystem::kRuntime> small(kSmall);
    // The smaller allocation must not move the high-water mark.
    EXPECT_EQ(tracker.peak_bytes(Subsystem::kRuntime), peak_after_big);
    EXPECT_EQ(tracker.live_bytes(Subsystem::kRuntime), live_before + kSmall);
  }
  EXPECT_EQ(tracker.live_bytes(Subsystem::kRuntime), live_before);
  EXPECT_EQ(tracker.peak_bytes(Subsystem::kRuntime), peak_after_big);
}

TEST(Rss, ReadRssReportsResidentBytes) {
  const RssSample sample = read_rss();
  // Linux CI/dev boxes always expose /proc; both fields are populated and
  // the high-water mark bounds the current value.
  EXPECT_GT(sample.rss_bytes, 0);
  EXPECT_GE(sample.rss_peak_bytes, sample.rss_bytes);
}

TEST(Rss, BytesPerPeerUsesPeerCount) {
  set_peer_count(1000);
  const auto values = memory_values();
  ASSERT_TRUE(values.contains("mem.bytes_per_peer"));
  const double rss = values.at("mem.rss_bytes");
  EXPECT_DOUBLE_EQ(values.at("mem.bytes_per_peer"), rss / 1000.0);
  ASSERT_TRUE(values.contains("mem.graph.live_bytes"));
  ASSERT_TRUE(values.contains("mem.tracked.peak_bytes"));
  set_peer_count(0);
  EXPECT_FALSE(memory_values().contains("mem.bytes_per_peer"));
}

TEST(MemoryBudget, ValidatorCoversUnderAndOverrun) {
  // Disabled budget never fires, regardless of live bytes.
  EXPECT_FALSE(check::validate_memory_budget(0, 1 << 30, "x").has_value());
  // Underrun (and exactly-at-budget) holds.
  EXPECT_FALSE(check::validate_memory_budget(100, 50, "x").has_value());
  EXPECT_FALSE(check::validate_memory_budget(100, 100, "x").has_value());
  // Overrun carries the budget and the breakdown.
  const auto v = check::validate_memory_budget(100, 150, "graph=1.0KiB");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->invariant, "mem.budget");
  EXPECT_NE(v->detail.find("SEL_MEM_BUDGET=100"), std::string::npos);
  EXPECT_NE(v->detail.find("graph=1.0KiB"), std::string::npos);
}

TEST(MemoryBudget, TripReportsOnceAndRearms) {
  ASSERT_EQ(mem_budget_bytes(), 4 * 1024) << "SEL_MEM_BUDGET=4k not armed "
                                             "before the first lazy parse";
  check::reset_memory_budget_trip();
  // Under budget: no trip.
  {
    check::ScopedFailureCapture capture;
    EXPECT_TRUE(check::check_memory_budget());
    EXPECT_TRUE(capture.empty());
  }
  AccountedVector<char, Subsystem::kPubsub> hog(64 * 1024);
  ASSERT_TRUE(budget_exceeded());
  check::ScopedFailureCapture capture;
  // First overrun trips with the subsystem breakdown attached...
  EXPECT_FALSE(check::check_memory_budget());
  ASSERT_EQ(capture.violations().size(), 1u);
  EXPECT_EQ(capture.violations()[0].invariant, "mem.budget");
  EXPECT_NE(capture.violations()[0].detail.find("pubsub="),
            std::string::npos);
  // ...then latches: still over budget, but no violation spam.
  EXPECT_TRUE(check::check_memory_budget());
  EXPECT_EQ(capture.violations().size(), 1u);
  // Tests re-arm explicitly.
  check::reset_memory_budget_trip();
  EXPECT_FALSE(check::check_memory_budget());
  EXPECT_EQ(capture.violations().size(), 2u);
  check::reset_memory_budget_trip();
}

TEST(RunReport, MemorySectionRoundTripsThroughJson) {
  RunReport report;
  report.experiment = "obs_memory_test";
  report.memory = {{"mem.rss_bytes", 1234.0},
                   {"mem.graph.live_bytes", 56.0}};
  const auto parsed = RunReport::from_json(report.to_json());
  EXPECT_EQ(parsed.memory, report.memory);

  // Pre-v3 document (no `memory` key at all) stays readable: the section
  // parses empty instead of throwing.
  const auto v2 = json::Value::parse(
      R"({"schema_version": 2, "experiment": "old", "git_describe": "x",)"
      R"( "metadata": {}, "metrics": {"counters": {}, "gauges": {},)"
      R"( "histograms": {}, "spans": {}, "rounds": []}, "timeseries": []})");
  const auto parsed_v2 = RunReport::from_json(v2);
  EXPECT_TRUE(parsed_v2.memory.empty());
  EXPECT_EQ(parsed_v2.experiment, "old");
}

}  // namespace
}  // namespace sel::obs
