// A1 — ablation: chain covers versus per-process queues (Sec. 3.3).
//
// The chain-cover enumeration tries Π cⱼ combinations against k^m for
// process enumeration. Messages that causally chain a group's true events
// shrink cⱼ below k, so the advantage should grow with message density.
// Every cover's size is checked against the brute-force maximum antichain
// of its group's three true events (Dilworth), so a wrong matching aborts.
#include <bit>

#include "bench_util.h"

int main() {
  using namespace gpd;
  bench::banner("A1 / chain-cover ablation",
                "Average minimum chain-cover size per group (k = 3) and the "
                "resulting enumeration sizes, as message density varies.");

  Rng rng(112358);
  Table table({"msgProb", "avg_cover_size", "procEnum_combos", "chain_combos",
               "shrinkage"});
  for (const double prob : {0.0, 0.2, 0.4, 0.6, 0.9}) {
    double coverSum = 0;
    double coverCount = 0;
    double procCombos = 0;
    double chainCombos = 0;
    const int trials = 20;
    for (int trial = 0; trial < trials; ++trial) {
      GroupedComputationOptions opt;
      opt.groups = 3;
      opt.groupSize = 3;
      opt.eventsPerProcess = 10;
      opt.messageProbability = prob;
      Rng local = rng.fork();
      const Computation comp = randomGroupedComputation(opt, local);
      VariableTrace trace(comp);
      // One true event per process: the group's cover size is the maximum
      // antichain among three events, which message-induced orderings merge.
      for (ProcessId p = 0; p < comp.processCount(); ++p) {
        std::vector<bool> values(comp.eventCount(p), false);
        values[1 + local.index(values.size() - 1)] = true;
        trace.defineBool(p, "b", values);
      }
      CnfPredicate pred;
      for (int g = 0; g < 3; ++g) {
        pred.clauses.push_back({{3 * g, "b", true},
                                {3 * g + 1, "b", true},
                                {3 * g + 2, "b", true}});
      }
      const VectorClocks clocks(comp);
      const auto covers = detect::clauseChainCovers(clocks, trace, pred);
      const auto trueEvents = analyze::clauseTrueEvents(trace, pred);
      for (std::size_t j = 0; j < covers.size(); ++j) {
        // Dilworth: the minimum cover has as many chains as the largest
        // antichain, found here by trying every subset of the 3 events.
        const std::vector<EventId>& events = trueEvents[j];
        GPD_CHECK(events.size() == 3);
        std::size_t widest = 0;
        for (unsigned mask = 1; mask < 8; ++mask) {
          bool antichain = true;
          for (int a = 0; a < 3; ++a) {
            for (int b = 0; b < 3; ++b) {
              if (a != b && (mask >> a & 1) && (mask >> b & 1) &&
                  clocks.leq(events[a], events[b])) {
                antichain = false;
              }
            }
          }
          if (antichain) {
            widest = std::max<std::size_t>(widest, std::popcount(mask));
          }
        }
        GPD_CHECK(covers[j].size() == widest);
      }
      double proc = 1;
      double chain = 1;
      for (const auto& cover : covers) {
        coverSum += static_cast<double>(cover.size());
        coverCount += 1;
        chain *= static_cast<double>(cover.size());
        proc *= 3;  // one queue per process of the group
      }
      procCombos += proc;
      chainCombos += chain;
    }
    char avg[16];
    std::snprintf(avg, sizeof(avg), "%.2f", coverSum / coverCount);
    char shrink[16];
    std::snprintf(shrink, sizeof(shrink), "%.2fx", procCombos / chainCombos);
    table.row(prob, avg, procCombos / trials, chainCombos / trials, shrink);
  }
  table.print(std::cout);
  std::cout << "\nShape check: the average cover size falls from k = 3 "
               "toward 1 as message density rises, shrinking the "
               "enumeration multiplicatively per group.\n";
  return 0;
}
