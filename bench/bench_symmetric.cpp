// E9 — Sec. 4.3: symmetric predicates detected as exact-sum disjunctions.
//
// Expected shape: detection time grows with |T| (the number of true-count
// disjuncts) times the polynomial exact-sum cost — far below the lattice —
// and verdicts match the exhaustive baseline wherever it is run.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E9 / Sec. 4.3 — symmetric predicates",
                "XOR, majority-absence, exactly-k, not-all-equal on voting "
                "and random boolean traces.");

  Rng rng(606);
  Table table({"predicate", "|T|", "procs", "events/proc", "detect_ms",
               "lattice_ms", "agree"});

  for (const int procs : {4, 6}) {
    for (const int events : {8, 16, 32}) {
      RandomComputationOptions opt;
      opt.processes = procs;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.35;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.3, local);
      const VectorClocks clocks(comp);
      std::vector<SumTerm> vars;
      for (ProcessId p = 0; p < procs; ++p) vars.push_back({p, "b"});

      for (const SymmetricPredicate& pred :
           {exclusiveOr(vars), absenceOfSimpleMajority(vars),
            absenceOfTwoThirdsMajority(vars), exactlyK(vars, procs / 2),
            notAllEqual(vars)}) {
        std::optional<Cut> witness;
        const double ms = bench::timeMs([&] {
          witness = detect::possiblySymmetric(clocks, trace, pred);
        });
        std::string latticeMs = "-";
        std::string agree = "(baseline skipped)";
        if (events <= 8) {
          bool latticeFound = false;
          latticeMs = bench::fmtMs(bench::timeMs([&] {
            latticeFound = lattice::findSatisfyingCut(clocks, pred.bind(trace))
                               .witness.has_value();
          }));
          agree = latticeFound == witness.has_value() ? "yes" : "NO";
        }
        table.row(pred.name, pred.trueCounts.size(), procs, events,
                  bench::fmtMs(ms), latticeMs, agree);
      }
    }
  }
  table.print(std::cout);

  std::cout << "\nOn the voting workload (semantic check):\n\n";
  Table vote({"seed", "final_yes", "possibly(no-majority)",
              "possibly(no-2/3-majority)"});
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::VotingOptions vopt;
    vopt.processes = 7;  // 6 voters
    vopt.seed = seed;
    const sim::SimResult run = sim::voting(vopt);
    const VectorClocks clocks(*run.computation);
    std::vector<SumTerm> yes;
    for (ProcessId p = 1; p < 7; ++p) yes.push_back({p, "yes"});
    int tally = 0;
    for (const auto& t : yes) {
      tally +=
          run.trace->valueAtCut(finalCut(*run.computation), t.process, t.var) != 0;
    }
    const auto noMaj =
        detect::possiblySymmetric(clocks, *run.trace, absenceOfSimpleMajority(yes));
    const auto noTwoThirds = detect::possiblySymmetric(
        clocks, *run.trace, absenceOfTwoThirdsMajority(yes));
    vote.row(seed, tally, noMaj ? "yes" : "no", noTwoThirds ? "yes" : "no");
  }
  vote.print(std::cout);
  std::cout << "\nShape check: detect_ms scales with |T| and polynomially "
               "with events/proc; agreement wherever the baseline ran.\n";
  return 0;
}
