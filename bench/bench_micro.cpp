// Micro-benchmarks (google-benchmark) for the hot paths: LSH indexing,
// greedy routing, graph generation, common-neighbour counting, gossip
// rounds, tree construction, the message plane's publish-and-drain loop
// and the reliable path's planners.
//
// The binary writes a RunReport (results/micro.report.json) on exit; the CI
// perf-smoke job runs it twice and gates with compare_reports.py, so the
// counter-ticking benchmarks (BM_SelectGossipRound, BM_EngineFeedDrain,
// BM_ReliablePlanners) pin their iteration counts — the `select.*`,
// `pubsub.*`, `runtime.*` and `bench.planners.*` counters must be
// bit-identical between same-flag runs.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "baselines/symphony.hpp"
#include "bench/bench_common.hpp"
#include "check/check.hpp"
#include "common/bitset.hpp"
#include "graph/generators.hpp"
#include "graph/profiles.hpp"
#include "graph/tie_strength.hpp"
#include "lsh/lsh.hpp"
#include "net/id_space.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "pubsub/engine.hpp"
#include "pubsub/mailbox.hpp"
#include "pubsub/multipath.hpp"
#include "select/protocol.hpp"
#include "sim/workload.hpp"

namespace {

using namespace sel;

void BM_SplitMix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = splitmix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SplitMix64);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_BitsetHamming(benchmark::State& state) {
  const auto bits = static_cast<std::size_t>(state.range(0));
  DynamicBitset a(bits);
  DynamicBitset b(bits);
  for (std::size_t i = 0; i < bits; i += 3) a.set(i);
  for (std::size_t i = 0; i < bits; i += 5) b.set(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming_distance(b));
  }
}
BENCHMARK(BM_BitsetHamming)->Arg(64)->Arg(256)->Arg(1024);

// One relink's index rebuild: clear, then append 128 friends.
void BM_LshIndexRebuild(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  lsh::LshIndex index(dim, 10, 12, 1);
  Rng rng(2);
  std::vector<DynamicBitset> bitmaps;
  for (std::uint32_t p = 0; p < 128; ++p) {
    DynamicBitset b(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      if (rng.chance(0.3)) b.set(i);
    }
    bitmaps.push_back(std::move(b));
  }
  for (auto _ : state) {
    index.clear();
    for (std::uint32_t p = 0; p < 128; ++p) index.append(p, p, bitmaps[p]);
    benchmark::DoNotOptimize(index.size());
  }
}
BENCHMARK(BM_LshIndexRebuild)->Arg(64)->Arg(256);

void BM_RingDistance(benchmark::State& state) {
  const net::OverlayId a(0.123);
  const net::OverlayId b(0.877);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::ring_distance(a, b));
  }
}
BENCHMARK(BM_RingDistance);

void BM_CommonNeighbors(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 2000, 1);
  Rng rng(3);
  for (auto _ : state) {
    const auto u = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    const auto v = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    benchmark::DoNotOptimize(g.common_neighbors(u, v));
  }
}
BENCHMARK(BM_CommonNeighbors);

// Same access pattern as the gossip loop (random peer, random friend) —
// the workload the tie-strength cache serves. Naive row below for the
// speedup ratio.
void BM_TieStrengthFriendPairs(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 2000, 1);
  graph::TieStrengthIndex tie(g);
  Rng rng(3);
  for (auto _ : state) {
    const auto u = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    benchmark::DoNotOptimize(tie.common_neighbors(u, rng.below(nbrs.size())));
  }
}
BENCHMARK(BM_TieStrengthFriendPairs);

void BM_CommonNeighborsFriendPairs(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 2000, 1);
  Rng rng(3);
  for (auto _ : state) {
    const auto u = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const auto v = nbrs[rng.below(nbrs.size())];
    benchmark::DoNotOptimize(g.common_neighbors(u, v));
  }
}
BENCHMARK(BM_CommonNeighborsFriendPairs);

void BM_HolmeKimGenerate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::holme_kim(n, 8, 0.6, ++seed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HolmeKimGenerate)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_SymphonyGreedyRoute(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 2000, 1);
  baselines::SymphonySystem sys(g, baselines::SymphonyParams{}, 1);
  sys.build();
  Rng rng(4);
  for (auto _ : state) {
    const auto a = static_cast<overlay::PeerId>(rng.below(2000));
    const auto b = static_cast<overlay::PeerId>(rng.below(2000));
    benchmark::DoNotOptimize(sys.route(a, b));
  }
}
BENCHMARK(BM_SymphonyGreedyRoute);

// Observability hot-path cost (run with SEL_OBS=off to see the disabled
// fast path — a single cached-flag branch).
void BM_ObsCounterAdd(benchmark::State& state) {
  auto& c = obs::MetricsRegistry::global().counter("bench.counter");
  for (auto _ : state) {
    c.add(1);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  auto& h = obs::MetricsRegistry::global().histogram("bench.histogram");
  double x = 0.0;
  for (auto _ : state) {
    h.observe(x);
    x += 0.1;
    if (x > 1000.0) x = 0.0;
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopedSpan(benchmark::State& state) {
  for (auto _ : state) {
    SEL_TRACE_SCOPE("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsScopedSpan);

// Provenance tracer cost on the publish path. With SEL_OBS=off this is the
// disabled fast path — a single cached-flag branch returning trace id 0.
// With SEL_OBS=on it pays the 1-in-N sampling decision (default N=64).
void BM_TraceBeginPublish(benchmark::State& state) {
  auto& tracer = obs::ProvenanceTracer::global();
  std::uint64_t msg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.begin_publish(++msg, 7, 0.0));
  }
  tracer.reset();
}
BENCHMARK(BM_TraceBeginPublish);

// Same, with sampling effectively off (1-in-2^31): the sampled-out branch
// every non-traced publish takes under SEL_OBS=on.
void BM_TraceBeginPublishUnsampled(benchmark::State& state) {
  auto& tracer = obs::ProvenanceTracer::global();
  const std::size_t prev = tracer.sample_every();
  tracer.set_sample_every(1u << 31);
  std::uint64_t msg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.begin_publish(++msg, 7, 0.0));
  }
  tracer.set_sample_every(prev);
  tracer.reset();
}
BENCHMARK(BM_TraceBeginPublishUnsampled);

// Hop recording for a sampled message (the per-edge cost of a traced
// dissemination); a no-op branch when tracing is disabled.
void BM_TraceRecordHop(benchmark::State& state) {
  auto& tracer = obs::ProvenanceTracer::global();
  tracer.reset();
  tracer.set_sample_every(1);
  const obs::TraceId trace = tracer.begin_publish(1, 7, 0.0);
  obs::HopRecord hop;
  hop.trace = trace == 0 ? 1 : trace;  // keep the hot path under SEL_OBS=off
  hop.msg = 1;
  hop.from = 7;
  hop.to = 8;
  hop.depth = 1;
  hop.send_s = 0.0;
  hop.arrive_s = 0.001;
  for (auto _ : state) {
    tracer.record_hop(hop);
  }
  tracer.set_sample_every(0);  // back to the SEL_TRACE_SAMPLE default
  tracer.reset();
}
BENCHMARK(BM_TraceRecordHop);

// Invariant-checker cost by level: kOff is the single-branch contract
// (check.hpp), kCheap the sampled default, kFull the complete ring walk —
// measured on the wired rebuild_ring() call site.
void BM_CheckRebuildRing(benchmark::State& state) {
  const check::ScopedLevel level(
      static_cast<check::Level>(state.range(1)));
  const auto n = static_cast<std::size_t>(state.range(0));
  overlay::RingSubstrate ov(n);
  Rng rng(3);
  for (overlay::PeerId p = 0; p < n; ++p) {
    ov.join(p, net::OverlayId(rng.uniform()));
  }
  for (auto _ : state) {
    ov.rebuild_ring();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CheckRebuildRing)
    ->ArgsProduct({{512, 2048}, {0, 1, 2}})
    ->ArgNames({"n", "sel_check"});

// Pure gate cost when disabled: what every wired call site pays at
// SEL_CHECK=off.
void BM_CheckEnabledOff(benchmark::State& state) {
  const check::ScopedLevel off(check::Level::kOff);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::enabled());
  }
}
BENCHMARK(BM_CheckEnabledOff);

constexpr int kGossipRoundIterations = 10;  // pinned: exact CI counters

void BM_SelectGossipRound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), n, 1);
  core::SelectSystem sys(g, core::SelectParams{}, 1);
  sys.join_all();
  for (auto _ : state) {
    sys.run_round();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SelectGossipRound)
    ->Arg(500)
    ->Arg(1000)
    ->Iterations(kGossipRoundIterations)
    ->Unit(benchmark::kMillisecond);

void BM_SelectBuildTree(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 1000, 1);
  core::SelectSystem sys(g, core::SelectParams{}, 1);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  Rng rng(5);
  for (auto _ : state) {
    const auto b = static_cast<overlay::PeerId>(rng.below(1000));
    benchmark::DoNotOptimize(ps.build_tree(b));
  }
}
BENCHMARK(BM_SelectBuildTree);

constexpr int kEngineFeedIterations = 5;  // pinned: exact CI counters

// The message plane alone: a built 1,000-peer facebook SELECT overlay and a
// fixed stream of 10,000 Jiang posts, each published when due and drained
// to the end on a fresh engine per iteration. Every publisher's tree is
// built on its first post and shared by the rest, so the time is the
// per-hop path: event heap, transport, delivery accounting.
void BM_EngineFeedDrain(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 1000, 1);
  const net::NetworkModel net(g.num_nodes(), 1);
  core::SelectSystem sys(g, core::SelectParams{}, 1, &net);
  sys.build();
  const overlay::PubSubSystem ps(sys);
  auto posts = sim::PublicationWorkload(g, sim::WorkloadParams{}, 1)
                   .generate(3600.0, 2);
  posts.resize(std::min<std::size_t>(posts.size(), 10'000));
  std::size_t deliveries = 0;
  for (auto _ : state) {
    pubsub::NotificationEngine engine(ps, net);
    for (const auto& post : posts) {
      engine.run_until(post.time_s);
      engine.publish(post.publisher, post.time_s);
    }
    engine.run_all();
    deliveries += engine.stats().deliveries;
    benchmark::DoNotOptimize(deliveries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}
BENCHMARK(BM_EngineFeedDrain)
    ->Iterations(kEngineFeedIterations)
    ->Unit(benchmark::kMillisecond);

// The event queue alone, in the hold model calendar queues are classically
// timed with: `depth` events stay pending, and each one that fires
// schedules the next at now + a delay from a fixed table (exponential with
// a 1 s mean, one in eight at `now`). The depths are perfbench's peak
// pending counts: chaos 197, feed 8,918, build 19,559.
struct HoldEvent {
  runtime::EventEngine* engine;
  const std::vector<double>* delays;
  std::size_t next;
  void operator()(double now) const {
    engine->schedule(now + (*delays)[next % delays->size()],
                     HoldEvent{engine, delays, next + 1});
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::size_t kFired = std::size_t{1} << 20;
  std::vector<double> delays(std::size_t{1} << 12);
  Rng rng(7);
  for (double& d : delays) {
    d = rng.below(8) == 0 ? 0.0 : -std::log1p(-rng.uniform());
  }
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    runtime::EventEngine engine;
    for (std::size_t i = 0; i < depth; ++i) {
      engine.schedule(delays[i % delays.size()],
                      HoldEvent{&engine, &delays, i * 7});
    }
    benchmark::DoNotOptimize(engine.run(kFired));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kFired));
}
BENCHMARK(BM_EventQueueHold)
    ->Arg(197)
    ->Arg(8918)
    ->Arg(19559)
    ->Unit(benchmark::kMillisecond);

constexpr int kReliablePlannerIterations = 5;  // pinned: exact CI counters

// The reliable path's two planners on a built 1,000-peer facebook SELECT
// overlay with every tenth peer offline (three maintenance rounds give the
// CMA values a spread): multipath plans for 40 fixed publishers, then
// three mailbox placement rankings for each of 200 fixed subscribers on a
// fresh manager per iteration. The hop sum and a ranking checksum are
// counted into bench.planners.* so CI gates both exactly.
void BM_ReliablePlanners(benchmark::State& state) {
  const auto g = graph::make_dataset_graph(
      graph::profile_by_name("facebook"), 1000, 1);
  const net::NetworkModel net(g.num_nodes(), 1);
  core::SelectSystem sys(g, core::SelectParams{}, 1, &net);
  sys.build();
  const auto n = static_cast<overlay::PeerId>(g.num_nodes());
  Rng rng(6);
  for (overlay::PeerId p = 0; p < n; ++p) {
    if (rng.chance(0.1)) sys.set_peer_online(p, false);
  }
  for (int round = 0; round < 3; ++round) sys.maintenance_round();
  std::vector<overlay::PeerId> publishers;
  while (publishers.size() < 40) {
    const auto p = static_cast<overlay::PeerId>(rng.below(n));
    if (sys.peer_online(p)) publishers.push_back(p);
  }
  std::vector<overlay::PeerId> subscribers;
  for (int i = 0; i < 200; ++i) {
    subscribers.push_back(static_cast<overlay::PeerId>(rng.below(n)));
  }
  auto& hops = obs::MetricsRegistry::global().counter("bench.planners.hops");
  auto& checksum = obs::MetricsRegistry::global().counter(
      "bench.planners.ranking_checksum");
  runtime::EventEngine queue;
  for (auto _ : state) {
    SEL_TRACE_SCOPE("bench.reliable_planners");
    std::int64_t hop_sum = 0;
    for (const overlay::PeerId p : publishers) {
      for (const auto& paths : pubsub::plan_multipath(sys, g, p).paths) {
        hop_sum += static_cast<std::int64_t>(paths.primary.size() - 1);
        if (!paths.backup.empty()) {
          hop_sum += static_cast<std::int64_t>(paths.backup.size() - 1);
        }
      }
    }
    pubsub::MailboxManager mailbox(queue, sys, net, pubsub::MailboxPolicy{},
                                   1);
    mailbox.set_availability_fn(
        [&sys](overlay::PeerId p) { return sys.cma_of(p); });
    std::uint64_t h = 0;
    for (int pass = 0; pass < 3; ++pass) {
      for (const overlay::PeerId s : subscribers) {
        for (const overlay::PeerId r : mailbox.placement_ranking(s)) {
          h = splitmix64(h ^ r);
        }
      }
    }
    hops.add(hop_sum);
    // 40 bits, so the per-run sum stays exact in a JSON double.
    checksum.add(static_cast<std::int64_t>(h >> 24));
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ReliablePlanners)
    ->Iterations(kReliablePlannerIterations)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of BENCHMARK_MAIN): after the benchmarks run, emit a
// RunReport next to the other harness artifacts so compare_reports.py can
// gate perf regressions (CI perf-smoke). The CSV path is only used to
// derive the report/trace file names; no CSV is written here.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sel::bench::write_run_report("micro",
                               sel::bench::output_path("micro.csv"));
  return 0;
}
