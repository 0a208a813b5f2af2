// One local predicate, every consumer: random singular and non-singular
// CNFs mixing boolean literals (x, !x) and comparison literals (v relop k,
// all six relops, either polarity) must read the same through BoundCnf,
// analyze::clauseTrueEvents and the Detector's possibly/definitely routes as
// through a brute-force evaluation of each literal at every cut of the
// grid, with the lattice's modalities decided over the consistent cuts in
// grid order.
#include <gtest/gtest.h>

#include <numeric>

#include "gpd.h"

namespace gpd {
namespace {

// The literal's definition, evaluated without the library's tabulation.
bool literalAt(const VariableTrace& trace, const LocalPredicate& l, int event) {
  return compare(trace.value(l.process, l.var, event), l.relop, l.k) ==
         l.positive;
}

bool cnfAt(const VariableTrace& trace, const CnfPredicate& pred,
           const Cut& cut) {
  for (const CnfClause& clause : pred.clauses) {
    bool sat = false;
    for (const LocalPredicate& l : clause) {
      sat = sat || literalAt(trace, l, cut.last[l.process]);
    }
    if (!sat) return false;
  }
  return true;
}

// Every cut of the grid, process 0 varying fastest: each cut's
// one-event-smaller neighbours come before it.
std::vector<Cut> gridCuts(const Computation& comp) {
  std::vector<Cut> out;
  std::vector<int> idx(comp.processCount(), 0);
  while (true) {
    out.push_back(Cut(std::vector<int>(idx)));
    int p = 0;
    while (p < comp.processCount() && idx[p] + 1 >= comp.eventCount(p)) {
      idx[p] = 0;
      ++p;
    }
    if (p == comp.processCount()) return out;
    ++idx[p];
  }
}

struct Modalities {
  bool possibly = false;
  bool definitely = false;
};

// possibly: some consistent cut satisfies φ. definitely: no run from ⊥ to
// ⊤ avoids φ — a consistent ¬φ cut is reachable by an avoiding run iff it
// is ⊥ or one of its consistent one-event predecessors is.
Modalities bruteModalities(const VectorClocks& clocks,
                           const VariableTrace& trace,
                           const CnfPredicate& pred) {
  const Computation& comp = clocks.computation();
  const std::vector<Cut> grid = gridCuts(comp);
  std::vector<std::size_t> stride(comp.processCount(), 1);
  for (ProcessId p = 1; p < comp.processCount(); ++p) {
    stride[p] =
        stride[p - 1] * static_cast<std::size_t>(comp.eventCount(p - 1));
  }
  std::vector<char> avoiding(grid.size(), 0);
  Modalities m;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Cut& cut = grid[i];
    if (!clocks.isConsistent(cut)) continue;
    if (cnfAt(trace, pred, cut)) {
      m.possibly = true;
      continue;
    }
    bool reached = i == 0;
    for (ProcessId p = 0; p < comp.processCount() && !reached; ++p) {
      reached = cut.last[p] > 0 && avoiding[i - stride[p]];
    }
    avoiding[i] = reached ? 1 : 0;
  }
  m.definitely = !avoiding.back();
  return m;
}

LocalPredicate randomLiteral(ProcessId p, Rng& rng) {
  const Relop ops[] = {Relop::Less,      Relop::LessEq, Relop::Greater,
                       Relop::GreaterEq, Relop::NotEqual, Relop::Equal};
  if (rng.chance(0.4)) return {p, "b", rng.chance(0.5)};
  return {p, "v", rng.chance(0.7), ops[rng.index(6)], rng.uniform(-2, 2)};
}

// Singular: each clause gets its own one or two processes. Otherwise the
// clauses draw their processes freely, so they usually share some.
CnfPredicate randomMixedCnf(int processes, bool singular, Rng& rng) {
  CnfPredicate pred;
  std::vector<ProcessId> order(static_cast<std::size_t>(processes));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::size_t next = 0;
  const int clauses = 2 + static_cast<int>(rng.index(2));
  for (int j = 0; j < clauses; ++j) {
    std::vector<ProcessId> hosts;
    if (singular) {
      if (next == order.size()) break;
      hosts.push_back(order[next++]);
      if (next < order.size() && rng.chance(0.5)) {
        hosts.push_back(order[next++]);
      }
    } else {
      hosts.push_back(static_cast<ProcessId>(rng.index(processes)));
      hosts.push_back(static_cast<ProcessId>(rng.index(processes)));
    }
    CnfClause clause;
    const int width = 1 + static_cast<int>(rng.index(3));
    for (int i = 0; i < width; ++i) {
      clause.push_back(randomLiteral(hosts[rng.index(hosts.size())], rng));
    }
    pred.clauses.push_back(std::move(clause));
  }
  return pred;
}

TEST(LocalPredicateProperty, MixedLiteralCnfsAgreeWithBruteForce) {
  int answered[2][2] = {{0, 0}, {0, 0}};  // [singular][possibly]
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 2654435761u + 17);
    RandomComputationOptions opt;
    opt.processes = 3 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.4;
    const Computation comp = randomComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomBools(trace, "b", 0.4, rng);
    defineRandomCounters(trace, "v", 0, 2, rng);
    const bool singular = seed % 2 == 0;
    const CnfPredicate pred = randomMixedCnf(opt.processes, singular, rng);
    ASSERT_TRUE(!singular || pred.isSingular()) << "seed " << seed;
    const std::string where = "seed " + std::to_string(seed) + " " +
                              pred.toString();

    const BoundCnf bound = pred.bind(trace);
    for (const Cut& cut : gridCuts(comp)) {
      ASSERT_EQ(bound(cut), cnfAt(trace, pred, cut))
          << where << " cut " << cut.toString();
    }

    const std::vector<std::vector<EventId>> trueEvents =
        analyze::clauseTrueEvents(trace, pred);
    ASSERT_EQ(trueEvents.size(), pred.clauses.size());
    for (std::size_t j = 0; j < pred.clauses.size(); ++j) {
      std::vector<EventId> want;
      for (ProcessId p : pred.clauseProcesses(static_cast<int>(j))) {
        for (int i = 0; i < comp.eventCount(p); ++i) {
          bool holds = false;
          for (const LocalPredicate& l : pred.clauses[j]) {
            holds = holds || (l.process == p && literalAt(trace, l, i));
          }
          if (holds) want.push_back({p, i});
        }
      }
      EXPECT_EQ(trueEvents[j], want) << where << " clause " << j;
    }

    detect::Detector det(trace);
    const Modalities truth = bruteModalities(det.clocks(), trace, pred);
    const std::optional<Cut> witness = det.possibly(pred);
    ASSERT_EQ(witness.has_value(), truth.possibly)
        << where << " [" << det.lastAlgorithm() << "]";
    if (witness) {
      EXPECT_TRUE(det.clocks().isConsistent(*witness)) << where;
      EXPECT_TRUE(cnfAt(trace, pred, *witness)) << where;
    }
    EXPECT_EQ(det.definitely(pred), truth.definitely) << where;
    ++answered[singular ? 1 : 0][truth.possibly ? 1 : 0];
  }
  // Both verdicts occur for both shapes, so no branch is vacuous.
  for (const auto& shape : answered) {
    EXPECT_GT(shape[0], 5);
    EXPECT_GT(shape[1], 5);
  }
}

}  // namespace
}  // namespace gpd
