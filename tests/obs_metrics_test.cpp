#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "graph/profiles.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
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

TEST(ObsHistogram, LocalBatchMergesLikeDirectObservations) {
  MetricsRegistry reg;
  auto& direct = reg.histogram("t.direct", {1.0, 10.0, 100.0});
  auto& merged = reg.histogram("t.merged", {1.0, 10.0, 100.0});
  LocalHistogram local(merged);
  local.flush();  // an empty batch merges nothing
  EXPECT_EQ(merged.count(), 0);
  for (const double x : {0.5, 1.0, 5.0, 50.0, 500.0, 3.0}) {
    direct.observe(x);
    local.observe(x);
  }
  EXPECT_EQ(merged.count(), 0);  // nothing reaches the registry before flush
  local.flush();
  local.flush();  // the batch cleared itself: no double count
  EXPECT_EQ(merged.counts(), direct.counts());
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.sum(), direct.sum());
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  // A second batch folds into the running min/max.
  local.observe(0.25);
  local.flush();
  EXPECT_EQ(merged.count(), 7);
  EXPECT_DOUBLE_EQ(merged.min(), 0.25);
  EXPECT_DOUBLE_EQ(merged.max(), 500.0);
  EXPECT_EQ(merged.counts()[0], 3);
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

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c.one"), 5);
  EXPECT_EQ(snap.counter("absent"), 0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 1.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1);
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].total_ns, 1000);
}

TEST(ObsRegistry, ResetZeroesEverythingButKeepsHandles) {
  MetricsRegistry reg;
  auto& c = reg.counter("c.reset");
  c.add(9);
  reg.gauge("g.reset").set(3.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c.reset"), 0);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 0.0);
  c.add(2);
  EXPECT_EQ(c.value(), 2);
}

TEST(ObsJson, DumpParseRoundTripPreservesIntegers) {
  const json::Value v(
      json::Value::Object{{"big", std::int64_t{1'234'567'890'123}},
                          {"neg", std::int64_t{-42}},
                          {"frac", 0.125}});
  // Integral values print without a fraction or exponent, so a reader
  // (json.load) gets the int64 counter back exactly.
  EXPECT_EQ(v.dump(), R"({"big":1234567890123,"frac":0.125,"neg":-42})");
}

TEST(ObsReport, JsonRoundTripPreservesEverything) {
  MetricsRegistry reg;
  reg.counter("select.gossip_exchanges").add(123);
  reg.counter("pubsub.relay_forwards").add(7);
  reg.gauge("select.run.n").set(1000.0);
  reg.histogram("pubsub.delivery_latency_s", {0.1, 1.0}).observe(0.05);
  reg.span("select.build").record_ns(5'000'000);

  RunReport report;
  report.experiment = "unit_test";
  report.git_describe = "v1-test";
  report.metadata["n"] = "1000";
  report.metadata["seed"] = "42";
  report.snapshot = reg.snapshot();

  const auto doc = report.to_json();

  EXPECT_EQ(doc.at("experiment").as_string(), "unit_test");
  EXPECT_EQ(doc.at("git_describe").as_string(), "v1-test");
  EXPECT_EQ(doc.at("metadata").at("n").as_string(), "1000");
  EXPECT_EQ(doc.at("metadata").at("seed").as_string(), "42");
  const auto& metrics = doc.at("metrics");
  EXPECT_EQ(metrics.at("counters").at("select.gossip_exchanges").as_int64(),
            123);
  EXPECT_EQ(metrics.at("counters").at("pubsub.relay_forwards").as_int64(), 7);
  ASSERT_EQ(metrics.at("gauges").as_object().size(), 1u);
  EXPECT_DOUBLE_EQ(metrics.at("gauges").at("select.run.n").as_double(),
                   1000.0);
  ASSERT_EQ(metrics.at("histograms").as_object().size(), 1u);
  const auto& hist = metrics.at("histograms").at("pubsub.delivery_latency_s");
  const auto& counts = hist.at("counts").as_array();
  ASSERT_EQ(counts.size(), report.snapshot.histograms[0].counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].as_int64(), report.snapshot.histograms[0].counts[i]);
  }
  EXPECT_DOUBLE_EQ(hist.at("min").as_double(), 0.05);
  ASSERT_EQ(metrics.at("spans").as_object().size(), 1u);
  EXPECT_EQ(metrics.at("spans").at("select.build").at("total_ns").as_int64(),
            5'000'000);
  // Schema 4: per-round records live only in the timeseries section.
  EXPECT_EQ(doc.at("schema_version").as_int64(), 4);
  EXPECT_FALSE(doc.at("metrics").contains("rounds"));
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
  // Every SELECT round's sampler point carries its phase timings.
  const auto points = RoundSampler::global().snapshot();
  bool saw_select_round = false;
  for (const auto& p : points) {
    if (p.label != "select.round") continue;
    saw_select_round = true;
    ASSERT_TRUE(p.values.contains("compute_ms")) << "round " << p.round;
    ASSERT_TRUE(p.values.contains("deliver_ms")) << "round " << p.round;
    EXPECT_GE(p.values.at("compute_ms"), 0.0);
    EXPECT_GE(p.values.at("deliver_ms"), 0.0);
  }
  EXPECT_TRUE(saw_select_round);
}

TEST(ObsReport, RoundCapDropsInsteadOfGrowing) {
  auto& dropped = MetricsRegistry::global().counter("obs.timeseries_dropped");
  const std::int64_t dropped_before = dropped.value();
  RoundSampler sampler;
  for (std::size_t i = 0; i < RoundSampler::kMaxPoints + 5; ++i) {
    sampler.sample("r", i);
  }
  EXPECT_EQ(sampler.snapshot().size(), RoundSampler::kMaxPoints);
  EXPECT_EQ(dropped.value() - dropped_before, 5);
}

}  // namespace
}  // namespace sel::obs
