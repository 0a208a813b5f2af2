// Edge cases of the singular-CNF detectors: spare processes outside every
// clause, negative-only clauses, both literals of a clause on one process,
// unit clauses mixed with wide ones, and true events at the initial event.
#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect/cpdsc.h"
#include "detect/singular_cnf.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

bool latticeTruth(const VectorClocks& vc, const VariableTrace& trace,
                  const CnfPredicate& pred) {
  return lattice::findSatisfyingCut(
             vc, [&](const Cut& c) { return pred.holdsAtCut(trace, c); })
      .witness.has_value();
}

TEST(SingularEdgeTest, SpareProcessesOutsideAllClauses) {
  Rng rng(640);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 5;  // clauses only mention 4 of them
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "b", 0.35, rng);
    CnfPredicate pred;
    pred.clauses = {{{0, "b", true}, {2, "b", rng.chance(0.5)}},
                    {{1, "b", rng.chance(0.5)}, {3, "b", true}}};
    const VectorClocks vc(c);
    const bool expected = latticeTruth(vc, trace, pred);
    EXPECT_EQ(detectSingularByProcessEnumeration(vc, trace, pred).found,
              expected)
        << "trial " << trial;
    EXPECT_EQ(detectSingularByChainCover(vc, trace, pred).found, expected)
        << "trial " << trial;
  }
}

TEST(SingularEdgeTest, NegativeOnlyClauses) {
  Rng rng(641);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "b", 0.7, rng);  // mostly true → negatives rare
    CnfPredicate pred;
    pred.clauses = {{{0, "b", false}, {1, "b", false}},
                    {{2, "b", false}, {3, "b", false}}};
    const VectorClocks vc(c);
    const bool expected = latticeTruth(vc, trace, pred);
    EXPECT_EQ(detectSingularByChainCover(vc, trace, pred).found, expected)
        << "trial " << trial;
  }
}

TEST(SingularEdgeTest, BothLiteralsOnOneProcess) {
  // (b ∨ ¬c) with both variables on p0 — still singular (clauses don't
  // share processes), and the clause's true events live on a single chain.
  Rng rng(642);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "b", 0.3, rng);
    defineRandomBools(trace, "c", 0.5, rng);
    CnfPredicate pred;
    pred.clauses = {{{0, "b", true}, {0, "c", false}},
                    {{1, "b", true}, {2, "b", true}}};
    ASSERT_TRUE(pred.isSingular());
    const VectorClocks vc(c);
    const bool expected = latticeTruth(vc, trace, pred);
    EXPECT_EQ(detectSingularByProcessEnumeration(vc, trace, pred).found,
              expected)
        << "trial " << trial;
    EXPECT_EQ(detectSingularByChainCover(vc, trace, pred).found, expected)
        << "trial " << trial;
    const CpdscResult special = detectSingularSpecialCase(vc, trace, pred);
    if (special.applicable()) {
      EXPECT_EQ(special.found(), expected) << "trial " << trial;
    }
  }
}

TEST(SingularEdgeTest, MixedClauseWidths) {
  Rng rng(643);
  for (int trial = 0; trial < 30; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 4;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.4;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "b", 0.4, rng);
    CnfPredicate pred;
    pred.clauses = {{{0, "b", true}},  // unit clause: a conjunct
                    {{1, "b", true}, {2, "b", false}, {3, "b", true}}};
    const VectorClocks vc(c);
    const bool expected = latticeTruth(vc, trace, pred);
    EXPECT_EQ(detectSingularByChainCover(vc, trace, pred).found, expected)
        << "trial " << trial;
  }
}

TEST(SingularEdgeTest, TrueOnlyAtInitialEvents) {
  // The initial cut is the only witness: all variables flip false at their
  // first real event.
  ComputationBuilder b(4);
  for (ProcessId p = 0; p < 4; ++p) b.appendEvent(p);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  for (ProcessId p = 0; p < 4; ++p) trace.defineBool(p, "b", {true, false});
  CnfPredicate pred;
  pred.clauses = {{{0, "b", true}, {1, "b", true}},
                  {{2, "b", true}, {3, "b", true}}};
  const VectorClocks vc(c);
  const auto res = detectSingularByChainCover(vc, trace, pred);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.cut->level(), 0);
}

TEST(SingularEdgeTest, EmptyCnfIsTriviallyTrue) {
  ComputationBuilder b(2);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  const VectorClocks vc(c);
  CnfPredicate pred;  // no clauses
  const auto res = detectSingularByChainCover(vc, trace, pred);
  EXPECT_TRUE(res.found);
}

}  // namespace
}  // namespace gpd::detect
