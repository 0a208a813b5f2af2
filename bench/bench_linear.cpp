// A6 — linear predicates: the greedy forbidden-process detector.
//
// The introduction's remaining polynomial class. Expected shape: oracle
// calls bounded by |E|, runtime linear-ish in the trace, verdicts identical
// to CPDHB (conjunctive instance) and to exhaustive search (termination
// instance).
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("A6 / linear predicates",
                "Greedy least-cut detector: conjunctive instance vs CPDHB, "
                "termination instance vs lattice.");

  Table table({"instance", "procs", "events/proc", "oracle_calls", "linear_ms",
               "reference_ms", "agree"});
  Rng rng(777);

  for (const int events : {16, 32, 64, 128}) {
    // Conjunctive instance, reference = CPDHB.
    {
      RandomComputationOptions opt;
      opt.processes = 6;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.4;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.15, local);
      ConjunctivePredicate pred;
      for (ProcessId p = 0; p < 6; ++p) pred.terms.push_back(varTrue(p, "b"));
      const VectorClocks clocks(comp);
      detect::LinearResult linear;
      const double linearMs = bench::timeMs([&] {
        linear = detect::detectLinear(clocks, detect::conjunctiveOracle(trace, pred));
      });
      detect::ConjunctiveResult cpdhb;
      const double refMs = bench::timeMs(
          [&] { cpdhb = detect::detectConjunctive(clocks, trace, pred); });
      table.row("conjunctive", 6, events, linear.oracleCalls,
                bench::fmtMs(linearMs), bench::fmtMs(refMs),
                linear.cut.has_value() == cpdhb.found ? "yes" : "NO");
    }
    // Termination instance, reference = lattice (small sizes only).
    {
      RandomComputationOptions opt;
      opt.processes = 4;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.5;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      for (ProcessId p = 0; p < 4; ++p) {
        std::vector<std::int64_t> act(comp.eventCount(p), 1);
        for (int i = comp.eventCount(p) / 2; i < comp.eventCount(p); ++i) {
          act[i] = 0;
        }
        trace.define(p, "active", std::move(act));
      }
      const VectorClocks clocks(comp);
      const auto oracle = detect::terminationOracle(trace, "active");
      detect::LinearResult linear;
      const double linearMs =
          bench::timeMs([&] { linear = detect::detectLinear(clocks, oracle); });
      std::string refMs = "-";
      std::string agree = "(baseline skipped)";
      if (events <= 16) {
        bool expected = false;
        refMs = bench::fmtMs(bench::timeMs([&] {
          expected = lattice::findSatisfyingCut(clocks, [&](const Cut& c) {
            return !oracle(c).has_value();
          }).witness.has_value();
        }));
        agree = expected == linear.cut.has_value() ? "yes" : "NO";
      }
      table.row("termination", 4, events, linear.oracleCalls,
                bench::fmtMs(linearMs), refMs, agree);
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: oracle calls stay ≤ |E|+1; runtime linear-ish "
               "in the trace length for the conjunctive instance.\n";
  return 0;
}
