// A8 — static-analysis throughput and the planner as a cost oracle.
//
// Two tables:
//   (1) strict read, lint and plan wall time per trace size — the analysis
//       passes must be cheap enough to run before every detection, and
//       read_ms next to lint_ms times both users of the one gpd-trace
//       parser (io::parseTrace);
//   (2) predicted vs actual CPDHB invocation counts for the Sec. 3.3
//       enumerations — the plan's predicted budget must equal the
//       combinationsTotal the detector reports (predicted/actual == 1).
#include <sstream>

#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("A8 / analyze: lint + plan",
                "Read and lint throughput over serialized traces, and planner "
                "predictions checked against the detectors' own counters.");

  Table lintTable({"procs", "events", "trace_bytes", "read_ms", "lint_ms",
                   "plan_ms", "diags"});
  Rng rng(811);
  for (const int procs : {4, 8, 16}) {
    for (const int events : {16, 64}) {
      RandomComputationOptions opt;
      opt.processes = procs;
      opt.eventsPerProcess = events;
      Rng local = rng.fork();
      const Computation comp = randomComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.4, local);
      std::ostringstream os;
      io::writeTrace(os, comp, trace);
      const std::string text = os.str();

      io::TraceFile read;
      const double readMs = bench::timeMs([&] {
        std::istringstream is(text);
        read = io::readTrace(is);
      });
      GPD_CHECK(read.computation->totalEvents() == comp.totalEvents());

      analyze::LintResult lint;
      const double lintMs = bench::timeMs([&] {
        std::istringstream is(text);
        lint = analyze::lintTrace(is, {});
      });
      GPD_CHECK(lint.ok());

      const VectorClocks clocks(comp);
      ConjunctivePredicate conj;
      for (ProcessId p = 0; p < procs; ++p) {
        conj.terms.push_back(varTrue(p, "b"));
      }
      analyze::AnalysisReport report;
      const double planMs = bench::timeMs([&] {
        report = analyze::planConjunctive(clocks, trace, conj,
                                          analyze::Modality::Possibly);
      });
      GPD_CHECK(report.chosen().algorithm == analyze::Algorithm::Cpdhb);

      lintTable.row(procs, events, text.size(), bench::fmtMs(readMs),
                    bench::fmtMs(lintMs), bench::fmtMs(planMs),
                    lint.diagnostics.size());
    }
  }
  lintTable.print(std::cout);

  std::cout << "\n";
  Table oracle({"groups", "k", "events", "ordered", "chosen",
                "predicted_combos", "actual_combos", "exact"});
  for (const int groups : {2, 3, 4}) {
    for (const auto discipline :
         {OrderingDiscipline::None, OrderingDiscipline::ReceiveOrdered}) {
      GroupedComputationOptions opt;
      opt.groups = groups;
      opt.groupSize = 2;
      opt.eventsPerProcess = 8;
      opt.discipline = discipline;
      Rng local = rng.fork();
      const Computation comp = randomGroupedComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.3, local);
      CnfPredicate pred;
      for (int g = 0; g < groups; ++g) {
        pred.clauses.push_back({{2 * g, "b", true}, {2 * g + 1, "b", true}});
      }
      const VectorClocks clocks(comp);

      const analyze::AnalysisReport report = analyze::planCnf(
          clocks, trace, pred, analyze::Modality::Possibly);
      std::uint64_t predicted = 0;
      for (const analyze::PlanStep& s : report.steps) {
        if (s.algorithm == analyze::Algorithm::SingularChainCover) {
          predicted = s.predictedCpdhbInvocations.value_or(0);
        }
      }
      const auto actual =
          detect::detectSingularByChainCover(clocks, trace, pred);
      GPD_CHECK(predicted == actual.combinationsTotal);

      oracle.row(groups, 2, opt.eventsPerProcess,
                 discipline == OrderingDiscipline::ReceiveOrdered ? "recv"
                                                                  : "none",
                 toString(report.chosen().algorithm), predicted,
                 actual.combinationsTotal,
                 predicted == actual.combinationsTotal ? "yes" : "NO");
    }
  }
  oracle.print(std::cout);
  std::cout << "\nShape check: lint/plan stay in the low milliseconds; the "
               "exact column is all-yes (the plan is an oracle, not an "
               "estimate), and ordered computations route to "
               "cpdsc-special-case.\n";
  return 0;
}
