// A2 — ablation: vector-clock consistency tests vs transitive closure.
//
// The detection algorithms issue millions of pairwise tests; vector clocks
// answer each in O(1) after an O(n·E) precomputation, where the dense
// transitive closure costs O(V·E/64) to build and O(V²/64) memory. Built on
// google-benchmark.
#include <benchmark/benchmark.h>

#include "gpd.h"

namespace {

using namespace gpd;

Computation makeComputation(int processes, int events) {
  RandomComputationOptions opt;
  opt.processes = processes;
  opt.eventsPerProcess = events;
  opt.messageProbability = 0.4;
  Rng rng(42);
  return randomComputation(opt, rng);
}

void BM_VectorClockBuild(benchmark::State& state) {
  const Computation comp =
      makeComputation(static_cast<int>(state.range(0)), 50);
  for (auto _ : state) {
    VectorClocks clocks(comp);
    benchmark::DoNotOptimize(clocks.clock({0, 1}, 0));
  }
}
BENCHMARK(BM_VectorClockBuild)->Arg(4)->Arg(8)->Arg(16);

void BM_ReachabilityBuild(benchmark::State& state) {
  const Computation comp =
      makeComputation(static_cast<int>(state.range(0)), 50);
  const graph::Dag dag = comp.toDag();
  for (auto _ : state) {
    graph::Reachability reach(dag);
    benchmark::DoNotOptimize(reach.reaches(0, 1));
  }
}
BENCHMARK(BM_ReachabilityBuild)->Arg(4)->Arg(8)->Arg(16);

void BM_PairConsistencyViaClocks(benchmark::State& state) {
  const Computation comp = makeComputation(8, 50);
  const VectorClocks clocks(comp);
  Rng rng(7);
  std::vector<std::pair<EventId, EventId>> pairs;
  for (int i = 0; i < 1024; ++i) {
    const ProcessId p = static_cast<ProcessId>(rng.index(8));
    const ProcessId q = static_cast<ProcessId>(rng.index(8));
    pairs.push_back({{p, static_cast<int>(rng.index(comp.eventCount(p)))},
                     {q, static_cast<int>(rng.index(comp.eventCount(q)))}});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [e, f] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(clocks.pairConsistent(e, f));
  }
}
BENCHMARK(BM_PairConsistencyViaClocks);

void BM_LeqViaReachability(benchmark::State& state) {
  const Computation comp = makeComputation(8, 50);
  const graph::Reachability reach(comp.toDag());
  Rng rng(7);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.push_back({static_cast<int>(rng.index(comp.totalEvents())),
                     static_cast<int>(rng.index(comp.totalEvents()))});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(reach.reaches(u, v));
  }
}
BENCHMARK(BM_LeqViaReachability);

void BM_LamportClocks(benchmark::State& state) {
  const Computation comp = makeComputation(8, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamportClocks(comp));
  }
}
BENCHMARK(BM_LamportClocks);

void BM_CutConsistency(benchmark::State& state) {
  const Computation comp =
      makeComputation(static_cast<int>(state.range(0)), 50);
  const VectorClocks clocks(comp);
  const Cut cut = finalCut(comp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocks.isConsistent(cut));
  }
}
BENCHMARK(BM_CutConsistency)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
