// E5 — Sec. 3.2: the polynomial special case (receive-/send-ordered
// computations) scales smoothly where the general problem is NP-complete.
//
// Expected shape: CPDSC runtime grows polynomially with the trace length
// for both disciplines, stays close to the general chain-cover algorithm on
// these instances (which enumerates few combinations anyway), and the
// exhaustive lattice baseline departs exponentially.
//
// The run aborts (GPD_CHECK) if CPDSC, the chain cover and the lattice
// disagree on a verdict, or if a CPDSC witness is not a consistent cut
// through one true event per clause group.
#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("E5 / Sec. 3.2 receive-/send-ordered special case",
                "Singular 2-CNF detection on disciplined computations; "
                "3 groups of 2 processes.");

  Table table({"discipline", "events/proc", "cpdsc_ms", "chainCover_ms",
               "lattice_ms", "verdicts_agree"});
  Rng rng(31415);

  for (const auto discipline : {OrderingDiscipline::ReceiveOrdered,
                                OrderingDiscipline::SendOrdered}) {
    const char* name =
        discipline == OrderingDiscipline::ReceiveOrdered ? "receive" : "send";
    for (const int events : {8, 16, 32, 64}) {
      GroupedComputationOptions opt;
      opt.groups = 3;
      opt.groupSize = 2;
      opt.eventsPerProcess = events;
      opt.messageProbability = 0.4;
      opt.discipline = discipline;
      Rng local = rng.fork();
      const Computation comp = randomGroupedComputation(opt, local);
      VariableTrace trace(comp);
      defineRandomBools(trace, "b", 0.1, local);
      CnfPredicate pred;
      for (int g = 0; g < 3; ++g) {
        pred.clauses.push_back(
            {{2 * g, "b", true}, {2 * g + 1, "b", true}});
      }
      const VectorClocks clocks(comp);

      detect::CpdscResult special;
      const double cpdscMs = bench::timeMs([&] {
        special = detect::detectSingularSpecialCase(clocks, trace, pred);
      });
      GPD_CHECK(special.applicable());
      if (special.found()) {
        GPD_CHECK(special.cut.has_value());
        GPD_CHECK(clocks.isConsistent(*special.cut));
        GPD_CHECK(special.witness.size() == pred.clauses.size());
        for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
          const EventId& e = special.witness[j];
          GPD_CHECK(special.cut->passesThrough(e));
          bool holds = false;
          for (const LocalPredicate& lit : pred.clauses[j]) {
            holds = holds || (lit.process == e.process &&
                              lit.holds(trace, e.index));
          }
          GPD_CHECK_MSG(holds, "CPDSC witness event " << j
                                                      << " is not clause-true");
        }
      }

      detect::SingularCnfResult general;
      const double chainMs = bench::timeMs([&] {
        general = detect::detectSingularByChainCover(clocks, trace, pred);
      });

      std::string latticeMs = "-";
      bool agree = special.found() == general.found;
      if (events <= 16) {
        bool latticeFound = false;
        latticeMs = bench::fmtMs(bench::timeMs([&] {
          latticeFound = lattice::findSatisfyingCut(clocks, pred.bind(trace))
                             .witness.has_value();
        }));
        agree = agree && latticeFound == special.found();
      }
      GPD_CHECK_MSG(agree, name << " " << events
                                << " events/proc: verdicts disagree");
      table.row(name, events, bench::fmtMs(cpdscMs), bench::fmtMs(chainMs),
                latticeMs, "yes");
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: cpdsc_ms grows polynomially with events/proc "
               "under both disciplines; the lattice column is omitted past "
               "16 events/proc.\n";
  return 0;
}
