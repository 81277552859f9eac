#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "graph/profiles.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "select/protocol.hpp"

namespace sel::obs {
namespace {

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  auto& c = reg.counter("t.counter");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(ObsCounter, SameNameReturnsSameInstrument) {
  MetricsRegistry reg;
  auto& a = reg.counter("t.same");
  auto& b = reg.counter("t.same");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  MetricsRegistry reg;
  auto& c = reg.counter("t.concurrent");
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, LastWriteWins) {
  MetricsRegistry reg;
  auto& g = reg.gauge("t.gauge");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsHistogram, BucketsCountSumMinMax) {
  MetricsRegistry reg;
  auto& h = reg.histogram("t.hist", {1.0, 10.0, 100.0});
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper edge)
  h.observe(5.0);    // bucket 1
  h.observe(50.0);   // bucket 2
  h.observe(500.0);  // overflow
  const auto counts = h.counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 556.5 / 5.0);
}

TEST(ObsHistogram, ConcurrentObservationsSumExactly) {
  MetricsRegistry reg;
  auto& h = reg.histogram("t.hist.mt", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(h.counts()[1], kThreads * kPerThread);  // all in overflow
}

TEST(ObsSpan, ScopedSpanTimingIsMonotonic) {
  auto& span = MetricsRegistry::global().span("t.span.mono");
  const auto count0 = span.count();
  const auto ns0 = span.total_ns();
  {
    ScopedSpan scope(span);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto count1 = span.count();
  const auto ns1 = span.total_ns();
  EXPECT_EQ(count1, count0 + 1);
  EXPECT_GE(ns1 - ns0, 2'000'000);  // at least the 2ms slept
  {
    ScopedSpan scope(span);
  }
  // Totals never decrease; every recorded span adds a non-negative duration.
  EXPECT_EQ(span.count(), count1 + 1);
  EXPECT_GE(span.total_ns(), ns1);
}

TEST(ObsSpan, TraceScopeMacroAccumulates) {
  auto& span = MetricsRegistry::global().span("t.span.macro");
  const auto before = span.count();
  for (int i = 0; i < 3; ++i) {
    SEL_TRACE_SCOPE("t.span.macro");
  }
  EXPECT_EQ(span.count(), before + 3);
}

TEST(ObsRegistry, SnapshotContainsAllInstrumentKinds) {
  MetricsRegistry reg;
  reg.counter("c.one").add(5);
  reg.gauge("g.one").set(1.5);
  reg.histogram("h.one", {1.0}).observe(0.5);
  reg.span("s.one").record_ns(1000);
  reg.add_round({"test.round", 0, 1.0, 0.5, 42});

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c.one"), 5);
  EXPECT_EQ(snap.counter("absent"), 0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].total_ns, 1000);
  ASSERT_EQ(snap.rounds.size(), 1u);
  EXPECT_EQ(snap.rounds[0].messages, 42u);
}

TEST(ObsRegistry, ResetZeroesEverythingButKeepsHandles) {
  MetricsRegistry reg;
  auto& c = reg.counter("c.reset");
  c.add(9);
  reg.gauge("g.reset").set(3.0);
  reg.add_round({"r", 1, 0.0, 0.0, 1});
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c.reset"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.0);
  EXPECT_TRUE(snap.rounds.empty());
  c.add(2);
  EXPECT_EQ(c.value(), 2);
}

TEST(ObsJson, ParsesScalarsContainersAndEscapes) {
  const auto v = json::Value::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "q\"\nA",)"
      R"( "nil": null, "f": false})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_double(), -300.0);
  EXPECT_TRUE(v.at("b").at("nested").as_bool());
  EXPECT_EQ(v.at("s").as_string(), "q\"\nA");
  EXPECT_TRUE(v.at("nil").is_null());
  EXPECT_FALSE(v.at("f").as_bool());
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW((void)json::Value::parse("{"), std::runtime_error);
  EXPECT_THROW((void)json::Value::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)json::Value::parse("{} junk"), std::runtime_error);
  EXPECT_THROW((void)json::Value::parse("\"unterminated"),
               std::runtime_error);
}

TEST(ObsJson, DumpParseRoundTripPreservesIntegers) {
  json::Value v;
  v["big"] = json::Value(std::int64_t{1'234'567'890'123});
  v["neg"] = json::Value(std::int64_t{-42});
  v["frac"] = json::Value(0.125);
  const auto parsed = json::Value::parse(v.dump());
  EXPECT_EQ(parsed.at("big").as_int64(), 1'234'567'890'123);
  EXPECT_EQ(parsed.at("neg").as_int64(), -42);
  EXPECT_DOUBLE_EQ(parsed.at("frac").as_double(), 0.125);
}

TEST(ObsReport, JsonRoundTripPreservesEverything) {
  MetricsRegistry reg;
  reg.counter("select.gossip_exchanges").add(123);
  reg.counter("pubsub.relay_forwards").add(7);
  reg.gauge("select.run.n").set(1000.0);
  reg.histogram("pubsub.delivery_latency_s", {0.1, 1.0}).observe(0.05);
  reg.span("select.build").record_ns(5'000'000);
  reg.add_round({"select.round", 0, 12.5, 3.25, 400});
  reg.add_round({"select.round", 1, 11.0, 3.0, 380});

  RunReport report;
  report.experiment = "unit_test";
  report.git_describe = "v1-test";
  report.metadata["n"] = "1000";
  report.metadata["seed"] = "42";
  report.snapshot = reg.snapshot();

  const auto parsed = RunReport::from_json(
      json::Value::parse(report.to_json().dump(2)));

  EXPECT_EQ(parsed.experiment, "unit_test");
  EXPECT_EQ(parsed.git_describe, "v1-test");
  EXPECT_EQ(parsed.metadata.at("n"), "1000");
  EXPECT_EQ(parsed.metadata.at("seed"), "42");
  EXPECT_EQ(parsed.snapshot.counter("select.gossip_exchanges"), 123);
  EXPECT_EQ(parsed.snapshot.counter("pubsub.relay_forwards"), 7);
  ASSERT_EQ(parsed.snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.snapshot.gauges[0].value, 1000.0);
  ASSERT_EQ(parsed.snapshot.histograms.size(), 1u);
  EXPECT_EQ(parsed.snapshot.histograms[0].counts,
            report.snapshot.histograms[0].counts);
  EXPECT_DOUBLE_EQ(parsed.snapshot.histograms[0].min, 0.05);
  ASSERT_EQ(parsed.snapshot.spans.size(), 1u);
  EXPECT_EQ(parsed.snapshot.spans[0].total_ns, 5'000'000);
  ASSERT_EQ(parsed.snapshot.rounds.size(), 2u);
  EXPECT_EQ(parsed.snapshot.rounds[0].label, "select.round");
  EXPECT_DOUBLE_EQ(parsed.snapshot.rounds[0].compute_ms, 12.5);
  EXPECT_DOUBLE_EQ(parsed.snapshot.rounds[1].deliver_ms, 3.0);
  EXPECT_EQ(parsed.snapshot.rounds[1].messages, 380u);
}

TEST(ObsReport, ReportPathDerivation) {
  EXPECT_EQ(report_path_for_csv("fig5_convergence.csv"),
            "fig5_convergence.report.json");
  EXPECT_EQ(report_path_for_csv("/tmp/out/scaling.csv"),
            "/tmp/out/scaling.report.json");
  EXPECT_EQ(report_path_for_csv("noext"), "noext.report.json");
}

TEST(ObsWiring, SelectBuildPopulatesProtocolTelemetry) {
  auto& reg = MetricsRegistry::global();
  const auto before = reg.snapshot();

  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 96, /*seed=*/7);
  core::SelectSystem sys(g, core::SelectParams{}, /*seed=*/7);
  sys.build();

  const auto after = reg.snapshot();
  EXPECT_GT(after.counter("select.gossip_exchanges"),
            before.counter("select.gossip_exchanges"));
  EXPECT_GT(after.counter("select.link_establishments"),
            before.counter("select.link_establishments"));
  EXPECT_GT(after.counter("select.rounds"), before.counter("select.rounds"));
  EXPECT_GT(after.rounds.size(), before.rounds.size());
  // Every SELECT round sample carries the gossip message count and timings.
  bool saw_select_round = false;
  for (const auto& r : after.rounds) {
    if (r.label != "select.round") continue;
    saw_select_round = true;
    EXPECT_GE(r.compute_ms, 0.0);
    EXPECT_GE(r.deliver_ms, 0.0);
  }
  EXPECT_TRUE(saw_select_round);
}

TEST(ObsReport, RoundCapDropsInsteadOfGrowing) {
  MetricsRegistry reg;
  for (std::size_t i = 0; i < MetricsRegistry::kMaxRounds + 5; ++i) {
    reg.add_round({"r", i, 0.0, 0.0, 0});
  }
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.rounds.size(), MetricsRegistry::kMaxRounds);
  EXPECT_EQ(snap.counter("obs.rounds_dropped"), 5);
}

}  // namespace
}  // namespace sel::obs
