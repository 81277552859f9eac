// Micro-benchmarks (google-benchmark) for the hot paths: LSH indexing,
// greedy routing, graph generation, common-neighbour counting, gossip
// rounds and tree construction.
//
// The binary writes a RunReport (results/micro.report.json) on exit; the CI
// perf-smoke job runs it twice and gates with compare_reports.py, so the
// counter-ticking benchmark (BM_SelectGossipRound) pins its iteration count
// — the `select.*` protocol counters must be bit-identical between
// same-flag runs.
#include <benchmark/benchmark.h>

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
#include "select/protocol.hpp"

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

void BM_LshIndexInsert(benchmark::State& state) {
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
  std::uint32_t p = 0;
  for (auto _ : state) {
    index.insert(p % 128, bitmaps[p % 128]);
    ++p;
  }
}
BENCHMARK(BM_LshIndexInsert)->Arg(64)->Arg(256);

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
    const auto v = nbrs[rng.below(nbrs.size())];
    benchmark::DoNotOptimize(tie.common_neighbors(u, v));
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
BENCHMARK(BM_HolmeKimGenerate)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

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
