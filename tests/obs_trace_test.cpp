// Provenance tracer, round sampler and Perfetto exporter (the tracing
// subsystem of obs/). Exercises the wired paths: a real NotificationEngine
// dissemination must reproduce its tree through the hop records, and the
// exported Chrome Trace Event JSON must be well-formed (every event carries
// ph/ts/pid/tid; flow ids pair up exactly).
#include "obs/perfetto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/profiles.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "pubsub/engine.hpp"
#include "select/protocol.hpp"

namespace sel::obs {
namespace {

using overlay::PeerId;

// The recorders are process-wide; each test starts from a clean slate.
class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProvenanceTracer::global().reset();
    ProvenanceTracer::global().set_sample_every(1);
    RoundSampler::global().reset();
  }
  void TearDown() override {
    ProvenanceTracer::global().set_sample_every(0);  // env default again
    ProvenanceTracer::global().reset();
    RoundSampler::global().reset();
  }
};

TEST_F(TracingTest, FirstPublishAlwaysSampled) {
  auto& tracer = ProvenanceTracer::global();
  tracer.set_sample_every(64);
  EXPECT_NE(tracer.begin_publish(1, 0, 0.0), 0u);  // publish #0 sampled
  for (std::uint64_t m = 2; m <= 64; ++m) {
    EXPECT_EQ(tracer.begin_publish(m, 0, 0.0), 0u) << "msg " << m;
  }
  EXPECT_NE(tracer.begin_publish(65, 0, 0.0), 0u);  // publish #64 sampled
  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.publishes_seen, 65);
  EXPECT_EQ(snap.publishes_sampled, 2);
  ASSERT_EQ(snap.publishes.size(), 2u);
  EXPECT_EQ(snap.publishes[0].msg, 1u);
  EXPECT_EQ(snap.publishes[1].msg, 65u);
}

TEST_F(TracingTest, TraceIdsAreUniqueAndNonZero) {
  auto& tracer = ProvenanceTracer::global();
  std::set<TraceId> ids;
  for (std::uint64_t m = 0; m < 100; ++m) {
    const TraceId id = tracer.begin_publish(m, 3, 0.0);
    ASSERT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST_F(TracingTest, HopRingOverwritesOldestPastCapacity) {
  auto& tracer = ProvenanceTracer::global();
  const TraceId trace = tracer.begin_publish(1, 0, 0.0);
  const auto n = ProvenanceTracer::kMaxHops + 10;
  for (std::size_t i = 0; i < n; ++i) {
    HopRecord hop;
    hop.trace = trace;
    hop.msg = i;  // marker for ordering
    tracer.record_hop(hop);
  }
  const auto snap = tracer.snapshot();
  EXPECT_EQ(snap.hops_recorded, static_cast<std::int64_t>(n));
  ASSERT_EQ(snap.hops.size(), ProvenanceTracer::kMaxHops);
  // Oldest-first: the 10 dropped hops are 0..9.
  EXPECT_EQ(snap.hops.front().msg, 10u);
  EXPECT_EQ(snap.hops.back().msg, n - 1);
}

// The tentpole acceptance test: a traced publish's hop records reproduce
// the dissemination tree exactly — hop count, parent linkage, depths, the
// relay-node set and the delivered count all match the engine's own stats.
TEST_F(TracingTest, EngineProvenanceMatchesDisseminationTree) {
  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), 300, 5);
  net::NetworkModel net(g.num_nodes(), 5);
  core::SelectSystem sys(g, core::SelectParams{}, 5, &net);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  pubsub::NotificationEngine engine(ps, net);

  constexpr PeerId kPublisher = 0;
  const auto id = engine.publish(kPublisher, 0.0);
  engine.run_all();
  const auto& rec = engine.record(id);
  ASSERT_NE(rec.trace, 0u);

  const auto tree = ps.build_tree(kPublisher);
  const auto subs = ps.subscribers_of(kPublisher);

  const auto snap = ProvenanceTracer::global().snapshot();
  std::vector<HopRecord> hops;
  for (const auto& h : snap.hops) {
    if (h.trace == rec.trace) hops.push_back(h);
  }

  // One hop per tree edge.
  ASSERT_EQ(hops.size(), tree.node_count() - 1);

  std::unordered_set<PeerId> relay_set;
  std::size_t delivered = 0;
  for (const auto& h : hops) {
    EXPECT_EQ(tree.parent(h.to), h.from) << "hop to " << h.to;
    EXPECT_EQ(tree.depth(h.to), h.depth) << "hop to " << h.to;
    EXPECT_GE(h.arrive_s, h.send_s);
    if (h.relay) relay_set.insert(h.to);
    if (h.delivered) ++delivered;
  }

  // Relay set == forwarding non-subscribers, exactly the engine's relay
  // accounting (one forward per relay node).
  std::unordered_set<PeerId> expected_relays;
  for (const PeerId r : tree.relay_nodes(subs)) {
    if (!tree.children(r).empty()) expected_relays.insert(r);
  }
  EXPECT_EQ(relay_set, expected_relays);
  EXPECT_EQ(relay_set.size(), rec.relay_forwards);
  EXPECT_EQ(delivered, rec.delivered);
  EXPECT_EQ(delivered, rec.wanted);
}

TEST_F(TracingTest, SamplerEmitsOnePointPerProtocolRound) {
  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), 96, 7);
  core::SelectSystem sys(g, core::SelectParams{}, 7);
  sys.join_all();
  constexpr std::size_t kRounds = 12;
  for (std::size_t i = 0; i < kRounds; ++i) sys.run_round();

  const auto points = RoundSampler::global().snapshot();
  std::vector<TimeSeriesPoint> select_points;
  for (const auto& p : points) {
    if (p.label == "select.round") select_points.push_back(p);
  }
  ASSERT_EQ(select_points.size(), kRounds);
  for (std::size_t i = 1; i < select_points.size(); ++i) {
    EXPECT_EQ(select_points[i].round, select_points[i - 1].round + 1);
    EXPECT_GE(select_points[i].ts_us, select_points[i - 1].ts_us);
  }
  // Every point carries the protocol gauges and the round's phase times.
  for (const auto& p : select_points) {
    EXPECT_TRUE(p.values.contains("id_movement"));
    EXPECT_TRUE(p.values.contains("link_changes"));
    EXPECT_TRUE(p.values.contains("exchanges"));
    ASSERT_TRUE(p.values.contains("compute_ms")) << "round " << p.round;
    ASSERT_TRUE(p.values.contains("deliver_ms")) << "round " << p.round;
    EXPECT_GE(p.values.at("compute_ms"), 0.0);
    EXPECT_GE(p.values.at("deliver_ms"), 0.0);
  }
}

TEST_F(TracingTest, SamplerDerivesDeliveryRatios) {
  auto& reg = MetricsRegistry::global();
  // Baseline sample pins the delta window to just the adds below.
  RoundSampler::global().sample("ratio.test", 0);
  reg.counter("pubsub.deliveries").add(100);
  reg.counter("pubsub.relay_forwards").add(25);
  reg.counter("pubsub.delivery_hops").add(350);
  RoundSampler::global().sample("ratio.test", 1);

  const auto points = RoundSampler::global().snapshot();
  ASSERT_EQ(points.size(), 2u);
  const auto& values = points[1].values;
  ASSERT_TRUE(values.contains("relay_ratio"));
  ASSERT_TRUE(values.contains("avg_route_hops"));
  EXPECT_DOUBLE_EQ(values.at("relay_ratio"), 0.25);
  EXPECT_DOUBLE_EQ(values.at("avg_route_hops"), 3.5);
  EXPECT_DOUBLE_EQ(values.at("pubsub.deliveries"), 100.0);
}

TEST_F(TracingTest, ReportCarriesTimeseriesThroughJson) {
  RoundSampler::global().sample("rt.series", 0, {{"id_movement", 0.5}});
  RoundSampler::global().sample("rt.series", 1, {{"id_movement", 0.0001}});

  RunReport report;
  report.experiment = "timeseries_rt";
  report.git_describe = "test";
  report.snapshot = MetricsRegistry::global().snapshot();
  report.timeseries = RoundSampler::global().snapshot();

  const auto doc = report.to_json();
  const auto& series = doc.at("timeseries").as_array();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].at("label").as_string(), "rt.series");
  EXPECT_EQ(series[1].at("round").as_int64(), 1);
  EXPECT_DOUBLE_EQ(series[0].at("values").at("id_movement").as_double(), 0.5);
}

// Validates the exported trace the way ui.perfetto.dev would: require
// ph/ts/pid/tid on every event, dur on completes, and exact
// one-"s"-one-"f" pairing per flow id.
TEST_F(TracingTest, PerfettoExportIsWellFormed) {
  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), 200, 11);
  net::NetworkModel net(g.num_nodes(), 11);
  core::SelectSystem sys(g, core::SelectParams{}, 11, &net);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  pubsub::NotificationEngine engine(ps, net);
  engine.publish(0, 0.0);
  engine.publish(1, 0.1);
  engine.run_all();

  const auto doc = build_trace_json();
  ASSERT_TRUE(doc.contains("traceEvents"));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::unordered_map<std::int64_t, int> flow_starts;
  std::unordered_map<std::int64_t, int> flow_finishes;
  std::size_t hop_slices = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.contains("ph"));
    ASSERT_TRUE(e.contains("ts"));
    ASSERT_TRUE(e.contains("pid"));
    ASSERT_TRUE(e.contains("tid"));
    ASSERT_TRUE(e.contains("name"));
    const auto& ph = e.at("ph").as_string();
    if (ph == "X") {
      ASSERT_TRUE(e.contains("dur")) << e.at("name").as_string();
      EXPECT_GE(e.at("dur").as_int64(), 0);
      if (e.at("name").as_string().starts_with("hop ")) ++hop_slices;
    } else if (ph == "s") {
      ++flow_starts[e.at("id").as_int64()];
    } else if (ph == "f") {
      ++flow_finishes[e.at("id").as_int64()];
    } else {
      EXPECT_TRUE(ph == "M" || ph == "C") << "unexpected ph " << ph;
    }
  }
  EXPECT_GT(hop_slices, 0u);
  EXPECT_EQ(flow_starts.size(), flow_finishes.size());
  EXPECT_FALSE(flow_starts.empty());
  for (const auto& [id, n] : flow_starts) {
    EXPECT_EQ(n, 1) << "flow " << id;
    EXPECT_EQ(flow_finishes[id], 1) << "flow " << id;
  }

  // Tracer accounting surfaces in the trace metadata.
  ASSERT_TRUE(doc.contains("metadata"));
  EXPECT_EQ(doc.at("metadata").at("publishes_seen").as_int64(), 2);
}

TEST_F(TracingTest, RoundSlicesStartAtOrAfterTheTraceEpoch) {
  // The epoch is fixed when the system is built, before round 0 starts, so
  // round 0's compute slice cannot start at a negative timestamp.
  const auto g =
      graph::make_dataset_graph(graph::profile_by_name("facebook"), 150, 13);
  core::SelectSystem sys(g, core::SelectParams{}, 13);
  sys.build();
  const auto doc = build_trace_json();
  std::size_t slices = 0;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    ++slices;
    EXPECT_GE(e.at("ts").as_int64(), 0) << e.at("name").as_string();
  }
  EXPECT_GT(slices, 0u);
}

TEST_F(TracingTest, PhaseEventsLandInRoundTracks) {
  // One sampled round: compute then deliver, ending at the point's stamp.
  TimeSeriesPoint point;
  point.label = "select.round";
  point.round = 4;
  point.ts_us = 170;
  point.values = {{"compute_ms", 0.05}, {"deliver_ms", 0.02}};
  const auto doc = build_trace_json(ProvenanceTracer::global().snapshot(),
                                    {point}, Snapshot{});
  bool saw_compute = false;
  bool saw_deliver = false;
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    EXPECT_EQ(e.at("args").at("round").as_int64(), 4);
    if (e.at("name").as_string() == "compute") {
      saw_compute = true;
      EXPECT_EQ(e.at("ts").as_int64(), 100);
      EXPECT_EQ(e.at("dur").as_int64(), 50);
    } else if (e.at("name").as_string() == "deliver") {
      saw_deliver = true;
      EXPECT_EQ(e.at("ts").as_int64(), 150);
      EXPECT_EQ(e.at("dur").as_int64(), 20);
    }
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_deliver);
}

TEST(ObsJsonEdgeCases, NonFiniteDoublesSerializeAsNull) {
  const json::Value v(json::Value::Object{
      {"nan", std::numeric_limits<double>::quiet_NaN()},
      {"inf", std::numeric_limits<double>::infinity()},
      {"ninf", -std::numeric_limits<double>::infinity()},
      {"ok", 1.5}});
  // Perfetto and json.loads both reject bare NaN/Infinity tokens.
  EXPECT_EQ(v.dump(), R"({"inf":null,"nan":null,"ninf":null,"ok":1.5})");
}

TEST(ObsJsonEdgeCases, ControlCharactersEscapeAndRoundTrip) {
  // Split literals: "\x01b" would otherwise munch the 'b' as a hex digit.
  const std::string raw = std::string("a\x01" "b\x1f") + "\n\t\"\\end";
  const json::Value v(json::Value::Object{{"s", raw}});
  // No raw control byte survives; each has its RFC 8259 escape, which any
  // reader decodes back to `raw`.
  EXPECT_EQ(v.dump(), R"({"s":"a\u0001b\u001f\n\t\"\\end"})");
}

TEST(ObsJsonEdgeCases, Utf8PassesThroughUnchanged) {
  const std::string raw = "héllo → wörld 🌐";
  const json::Value v(json::Value::Object{{"s", raw}});
  EXPECT_EQ(v.dump(), "{\"s\":\"" + raw + "\"}");
}

TEST(ObsTracePaths, TracePathDerivation) {
  EXPECT_EQ(trace_path_for_csv("fig5_convergence.csv"),
            "fig5_convergence.trace.json");
  EXPECT_EQ(trace_path_for_csv("results/scaling.csv"),
            "results/scaling.trace.json");
  EXPECT_EQ(trace_path_for_csv("noext"), "noext.trace.json");
}

}  // namespace
}  // namespace sel::obs
