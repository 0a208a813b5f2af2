// Corollary 2 through the Detector: inequality-clause predicates, clauses
// (x relop a) ∨ (y relop b) ∨ … on disjoint processes, are CNF predicates
// with comparison literals, routed like any other CNF query.
#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect/detector.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

CnfPredicate randomIneq(int clauses, Rng& rng) {
  const Relop ops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                       Relop::GreaterEq, Relop::NotEqual};
  CnfPredicate pred;
  for (int g = 0; g < clauses; ++g) {
    pred.clauses.push_back(
        {{2 * g, "v", true, ops[rng.index(5)], rng.uniform(-3, 3)},
         {2 * g + 1, "v", true, ops[rng.index(5)], rng.uniform(-3, 3)}});
  }
  return pred;
}

TEST(IneqDetectTest, MatchesLatticeOnRandomTraces) {
  Rng rng(4810);
  int found = 0;
  for (int trial = 0; trial < 50; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    opt.discipline = trial % 2 ? OrderingDiscipline::ReceiveOrdered
                               : OrderingDiscipline::None;
    const Computation comp = randomGroupedComputation(opt, rng);
    VariableTrace trace(comp);
    defineRandomCounters(trace, "v", 0, 2, rng);
    const CnfPredicate pred = randomIneq(2, rng);
    Detector det(trace);
    const std::optional<Cut> cut = det.possibly(pred);
    const bool expected =
        lattice::findSatisfyingCut(det.clocks(), [&](const Cut& c) {
          return pred.holdsAtCut(trace, c);
        }).witness.has_value();
    ASSERT_EQ(cut.has_value(), expected) << "trial " << trial;
    if (cut) {
      ++found;
      EXPECT_TRUE(det.clocks().isConsistent(*cut));
      EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
    }
  }
  EXPECT_GT(found, 5);
}

TEST(IneqDetectTest, ReportsSpecialCaseOnDisciplinedComputations) {
  Rng rng(22);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 5;
  opt.messageProbability = 0.6;
  opt.discipline = OrderingDiscipline::ReceiveOrdered;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomCounters(trace, "v", 0, 1, rng);
  const CnfPredicate pred = randomIneq(2, rng);
  Detector det(trace);
  (void)det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "cpdsc-special-case");
}

}  // namespace
}  // namespace gpd::detect
