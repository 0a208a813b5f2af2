#include "detect/inequality_detect.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

IneqClausePredicate randomIneq(int clauses, Rng& rng) {
  const Relop ops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                       Relop::GreaterEq, Relop::NotEqual};
  IneqClausePredicate pred;
  for (int g = 0; g < clauses; ++g) {
    pred.clauses.push_back(
        {{2 * g, "v", ops[rng.index(5)], rng.uniform(-3, 3)},
         {2 * g + 1, "v", ops[rng.index(5)], rng.uniform(-3, 3)}});
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
    const IneqClausePredicate pred = randomIneq(2, rng);
    const VectorClocks clocks(comp);
    const IneqResult res = possiblyInequality(clocks, trace, pred);
    const bool expected = lattice::findSatisfyingCut(clocks, [&](const Cut& c) {
      return pred.holdsAtCut(trace, c);
    }).witness.has_value();
    ASSERT_EQ(res.cut.has_value(), expected) << "trial " << trial;
    if (res.cut) {
      ++found;
      EXPECT_TRUE(clocks.isConsistent(*res.cut));
      EXPECT_TRUE(pred.holdsAtCut(trace, *res.cut));
    }
  }
  EXPECT_GT(found, 5);
}

TEST(IneqDetectTest, RepeatedCallsOnOneTraceAreSafe) {
  ComputationBuilder b(4);
  for (ProcessId p = 0; p < 4; ++p) b.appendEvent(p);
  const Computation comp = std::move(b).build();
  VariableTrace trace(comp);
  for (ProcessId p = 0; p < 4; ++p) trace.define(p, "v", {0, p});
  const VectorClocks clocks(comp);
  IneqClausePredicate pred;
  pred.clauses = {{{0, "v", Relop::GreaterEq, 0}, {1, "v", Relop::Less, 0}},
                  {{2, "v", Relop::Greater, 1}, {3, "v", Relop::NotEqual, 0}}};
  const auto first = possiblyInequality(clocks, trace, pred);
  const auto second = possiblyInequality(clocks, trace, pred);  // no throw
  EXPECT_EQ(first.cut.has_value(), second.cut.has_value());
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
  const VectorClocks clocks(comp);
  const IneqClausePredicate pred = randomIneq(2, rng);
  const IneqResult res = possiblyInequality(clocks, trace, pred);
  EXPECT_EQ(res.algorithm, "cpdsc-special-case");
}

TEST(IneqDetectTest, RejectsNonSingular) {
  ComputationBuilder b(2);
  const Computation comp = std::move(b).build();
  VariableTrace trace(comp);
  trace.define(0, "v", {0});
  trace.define(1, "v", {0});
  const VectorClocks clocks(comp);
  IneqClausePredicate pred;
  pred.clauses = {{{0, "v", Relop::Less, 1}}, {{0, "v", Relop::Greater, -1}}};
  EXPECT_THROW(possiblyInequality(clocks, trace, pred), CheckFailure);
}

}  // namespace
}  // namespace gpd::detect
