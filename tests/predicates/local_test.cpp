#include "predicates/local.h"

#include <gtest/gtest.h>

namespace gpd {
namespace {

Computation twoProc() {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(0);
  b.appendEvent(1);
  return std::move(b).build();
}

TEST(RelopTest, CompareAllOperators) {
  EXPECT_TRUE(compare(1, Relop::Less, 2));
  EXPECT_FALSE(compare(2, Relop::Less, 2));
  EXPECT_TRUE(compare(2, Relop::LessEq, 2));
  EXPECT_TRUE(compare(3, Relop::Greater, 2));
  EXPECT_TRUE(compare(2, Relop::GreaterEq, 2));
  EXPECT_TRUE(compare(2, Relop::Equal, 2));
  EXPECT_TRUE(compare(1, Relop::NotEqual, 2));
  EXPECT_FALSE(compare(2, Relop::NotEqual, 2));
}

TEST(RelopTest, ToStringAll) {
  EXPECT_EQ(toString(Relop::Less), "<");
  EXPECT_EQ(toString(Relop::LessEq), "<=");
  EXPECT_EQ(toString(Relop::Greater), ">");
  EXPECT_EQ(toString(Relop::GreaterEq), ">=");
  EXPECT_EQ(toString(Relop::Equal), "==");
  EXPECT_EQ(toString(Relop::NotEqual), "!=");
}

TEST(LocalPredicateTest, VarTrueAndFalse) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, false});
  const LocalPredicate pt = varTrue(0, "x");
  const LocalPredicate pf = varFalse(0, "x");
  EXPECT_FALSE(pt.holds(t, 0));
  EXPECT_TRUE(pt.holds(t, 1));
  EXPECT_TRUE(pf.holds(t, 0));
  EXPECT_FALSE(pf.holds(t, 1));
  EXPECT_EQ(trueEvents(t, pt), (std::vector<int>{1}));
  EXPECT_EQ(trueEvents(t, pf), (std::vector<int>{0, 2}));
}

TEST(LocalPredicateTest, VarCompare) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "n", {0, 5, 3});
  const LocalPredicate p = varCompare(0, "n", Relop::GreaterEq, 4);
  EXPECT_EQ(trueEvents(t, p), (std::vector<int>{1}));
  EXPECT_EQ(p.label(), "n >= 4");
}

TEST(LocalPredicateTest, LabelsNameEachShape) {
  EXPECT_EQ(varTrue(0, "x").label(), "x");
  EXPECT_EQ(varFalse(0, "x").label(), "!x");
  EXPECT_EQ((LocalPredicate{0, "n", false, Relop::Less, -2}).label(),
            "!(n < -2)");
}

TEST(LocalPredicateTest, EventTruthJoinsTheLiteralsOnOneProcess) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "n", {0, 5, 3});
  t.defineBool(1, "y", {true, false});
  const std::vector<LocalPredicate> lits = {
      varCompare(0, "n", Relop::Greater, 4),
      varCompare(0, "n", Relop::Equal, 3), varTrue(1, "y")};
  EXPECT_EQ(eventTruth(t, 0, lits, Join::Any), (std::vector<char>{0, 1, 1}));
  EXPECT_EQ(eventTruth(t, 0, lits, Join::All), (std::vector<char>{0, 0, 0}));
  EXPECT_EQ(eventTruth(t, 1, lits, Join::Any), (std::vector<char>{1, 0}));
  // No literal on the process: the empty disjunction and conjunction.
  EXPECT_EQ(eventTruth(t, 1, {lits.data(), 2}, Join::Any),
            (std::vector<char>{0, 0}));
  EXPECT_EQ(eventTruth(t, 1, {lits.data(), 2}, Join::All),
            (std::vector<char>{1, 1}));
}

TEST(LocalPredicateTest, HoldsAtCut) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, false});
  const LocalPredicate p = varTrue(0, "x");
  EXPECT_TRUE(p.holdsAtCut(t, Cut(std::vector<int>{1, 0})));
  EXPECT_FALSE(p.holdsAtCut(t, Cut(std::vector<int>{2, 0})));
}

TEST(ConjunctivePredicateTest, HoldsAtCutConjunction) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.defineBool(0, "x", {false, true, true});
  t.defineBool(1, "y", {true, false});
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "y")}};
  EXPECT_TRUE(pred.holdsAtCut(t, Cut(std::vector<int>{1, 0})));
  EXPECT_FALSE(pred.holdsAtCut(t, Cut(std::vector<int>{1, 1})));
  EXPECT_FALSE(pred.holdsAtCut(t, Cut(std::vector<int>{0, 0})));
}

}  // namespace
}  // namespace gpd
