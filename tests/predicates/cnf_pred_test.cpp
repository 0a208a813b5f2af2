#include "predicates/cnf.h"

#include <gtest/gtest.h>

#include "computation/computation.h"

namespace gpd {
namespace {

Computation fourProc() {
  ComputationBuilder b(4);
  for (ProcessId p = 0; p < 4; ++p) {
    b.appendEvent(p);
    b.appendEvent(p);
  }
  return std::move(b).build();
}

TEST(CnfPredicateTest, SingularDetection) {
  CnfPredicate singular;
  singular.clauses = {{{0, "x", true}, {1, "y", false}},
                      {{2, "z", true}, {3, "w", true}}};
  EXPECT_TRUE(singular.isSingular());

  CnfPredicate shared;
  shared.clauses = {{{0, "x", true}, {1, "y", true}},
                    {{1, "z", true}, {2, "w", true}}};  // p1 in both clauses
  EXPECT_FALSE(shared.isSingular());
}

TEST(CnfPredicateTest, SameProcessTwiceInOneClauseIsStillSingular) {
  // The definition only forbids *two clauses* sharing a process.
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {0, "y", true}}};
  EXPECT_TRUE(pred.isSingular());
  EXPECT_EQ(pred.clauseProcesses(0), (std::vector<ProcessId>{0}));
}

TEST(CnfPredicateTest, IsKCnf) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "y", true}},
                  {{2, "z", true}, {3, "w", true}}};
  EXPECT_TRUE(pred.isKCnf(2));
  EXPECT_FALSE(pred.isKCnf(3));
  pred.clauses.push_back({{2, "q", true}});
  EXPECT_FALSE(pred.isKCnf(2));
}

TEST(CnfPredicateTest, HoldsAtCutEvaluatesClauses) {
  const Computation c = fourProc();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, false});
  t.defineBool(1, "y", {false, false, true});
  t.defineBool(2, "z", {true, true, true});
  t.defineBool(3, "w", {false, false, false});
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "y", true}},
                  {{2, "z", true}, {3, "w", true}}};
  // x true at (0,1) satisfies clause 1; z always satisfies clause 2.
  EXPECT_TRUE(pred.holdsAtCut(t, Cut(std::vector<int>{1, 0, 0, 0})));
  // Neither x@2 nor y@0 true: clause 1 fails.
  EXPECT_FALSE(pred.holdsAtCut(t, Cut(std::vector<int>{2, 0, 0, 0})));
  // Negative literal: !w is always true here.
  CnfPredicate neg;
  neg.clauses = {{{3, "w", false}}};
  EXPECT_TRUE(neg.holdsAtCut(t, Cut(std::vector<int>{0, 0, 0, 2})));
}

TEST(CnfPredicateTest, ToStringReadable) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "y", false}}};
  EXPECT_EQ(pred.toString(), "(x@p0 | !y@p1)");
}

TEST(CnfPredicateTest, ToStringShowsComparisonLiterals) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true, Relop::LessEq, 2},
                   {1, "y", false, Relop::Equal, 0}}};
  EXPECT_EQ(pred.toString(), "((x <= 2)@p0 | !(y == 0)@p1)");
}

// Corollary 2's inequality clauses are CNF clauses of comparison literals.
TEST(IneqPredicateTest, SingularCheck) {
  CnfPredicate ok;
  ok.clauses = {{{0, "x", true, Relop::Less, 3},
                 {1, "y", true, Relop::GreaterEq, 2}},
                {{2, "z", true, Relop::NotEqual, 0}}};
  EXPECT_TRUE(ok.isSingular());

  CnfPredicate bad = ok;
  bad.clauses.push_back({{1, "w", true, Relop::Less, 9}});
  EXPECT_FALSE(bad.isSingular());
}

TEST(IneqPredicateTest, HoldsAtCut) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace t(c);
  t.define(0, "x", {0, 5});
  t.define(1, "y", {7, 1});
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true, Relop::Greater, 3},
                   {1, "y", true, Relop::Less, 2}}};
  EXPECT_FALSE(pred.holdsAtCut(t, Cut(std::vector<int>{0, 0})));  // 0>3? 7<2? no
  EXPECT_TRUE(pred.holdsAtCut(t, Cut(std::vector<int>{1, 0})));   // 5>3
  EXPECT_TRUE(pred.holdsAtCut(t, Cut(std::vector<int>{0, 1})));   // 1<2
}

TEST(CnfPredicateTest, EmptyPredicateHoldsEverywhere) {
  const Computation c = fourProc();
  VariableTrace t(c);
  CnfPredicate pred;
  EXPECT_TRUE(pred.isSingular());
  EXPECT_TRUE(pred.holdsAtCut(t, initialCut(c)));
}

}  // namespace
}  // namespace gpd
