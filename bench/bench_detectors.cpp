// Microbenchmarks (google-benchmark) for the detector hot paths at a fixed
// realistic size — the regression-tracking companion to the shape-oriented
// experiment tables.
#include <benchmark/benchmark.h>

#include "gpd.h"

namespace {

using namespace gpd;

struct Fixture {
  Computation comp;
  VariableTrace trace;
  VectorClocks clocks;

  Fixture() : comp(make()), trace(comp), clocks(comp) {
    Rng rng(99);
    defineRandomBools(trace, "b", 0.2, rng);
    defineRandomCounters(trace, "x", 0, 1, rng);
  }

  static Computation make() {
    RandomComputationOptions opt;
    opt.processes = 6;
    opt.eventsPerProcess = 40;
    opt.messageProbability = 0.4;
    Rng rng(42);
    return randomComputation(opt, rng);
  }

  ConjunctivePredicate conjunctive() const {
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "b"));
    }
    return pred;
  }

  CnfPredicate singular() const {
    CnfPredicate pred;
    for (int g = 0; g < 3; ++g) {
      pred.clauses.push_back(
          {{2 * g, "b", true}, {2 * g + 1, "b", true}});
    }
    return pred;
  }

  std::vector<SumTerm> terms() const {
    std::vector<SumTerm> out;
    for (ProcessId p = 0; p < comp.processCount(); ++p) out.push_back({p, "x"});
    return out;
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Cpdhb(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto pred = f.conjunctive();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::detectConjunctive(f.clocks, f.trace, pred).found);
  }
}
BENCHMARK(BM_Cpdhb);

void BM_SingularChainCover(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto pred = f.singular();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::detectSingularByChainCover(f.clocks, f.trace, pred).found);
  }
}
BENCHMARK(BM_SingularChainCover);

void BM_SumExtrema(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto terms = f.terms();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::sumExtrema(f.clocks, f.trace, terms).maxSum);
  }
}
BENCHMARK(BM_SumExtrema);

void BM_Theorem7ExactSum(benchmark::State& state) {
  const Fixture& f = fixture();
  SumPredicate pred{f.terms(), Relop::Equal, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::possiblySum(f.clocks, f.trace, pred).has_value());
  }
}
BENCHMARK(BM_Theorem7ExactSum);

void BM_SymmetricXor(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto pred = exclusiveOr(f.terms());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::possiblySymmetric(f.clocks, f.trace, pred).has_value());
  }
}
BENCHMARK(BM_SymmetricXor);

void BM_DefinitelyConjunctive(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto pred = f.conjunctive();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detect::definitelyConjunctive(f.clocks, f.trace, pred).holds);
  }
}
BENCHMARK(BM_DefinitelyConjunctive);

void BM_LinearTermination(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto oracle = detect::channelsEmptyOracle(f.comp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::detectLinear(f.clocks, oracle).oracleCalls);
  }
}
BENCHMARK(BM_LinearTermination);

void BM_SliceBuild(benchmark::State& state) {
  const Fixture& f = fixture();
  const auto pred = f.conjunctive();
  const auto oracle = detect::conjunctiveOracle(f.trace, pred);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::computeSlice(f.clocks, oracle).satisfiable);
  }
}
BENCHMARK(BM_SliceBuild);

void BM_TraceRoundTrip(benchmark::State& state) {
  const Fixture& f = fixture();
  for (auto _ : state) {
    std::stringstream buffer;
    io::writeTrace(buffer, f.comp, f.trace);
    benchmark::DoNotOptimize(io::readTrace(buffer).computation->totalEvents());
  }
}
BENCHMARK(BM_TraceRoundTrip);

}  // namespace

BENCHMARK_MAIN();
