#include "predicates/boolean_expr.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd {
namespace {

Computation flat(int procs, int events) {
  ComputationBuilder b(procs);
  for (ProcessId p = 0; p < procs; ++p) {
    for (int i = 0; i < events; ++i) b.appendEvent(p);
  }
  return std::move(b).build();
}

// Evaluate a DNF against a trace/cut.
bool evalDnf(const std::vector<DnfTerm>& dnf, const VariableTrace& trace,
             const Cut& cut) {
  for (const DnfTerm& term : dnf) {
    bool all = true;
    for (const LocalPredicate& lit : term) {
      if (!lit.holds(trace, cut.last[lit.process])) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

BoolExprPtr randomExpr(int procs, int depth, Rng& rng) {
  if (depth == 0 || rng.chance(0.35)) {
    return BoolExpr::var(static_cast<ProcessId>(rng.index(procs)), "x");
  }
  switch (rng.index(3)) {
    case 0:
      return BoolExpr::negate(randomExpr(procs, depth - 1, rng));
    case 1: {
      std::vector<BoolExprPtr> kids;
      const int n = 2 + static_cast<int>(rng.index(2));
      for (int i = 0; i < n; ++i) kids.push_back(randomExpr(procs, depth - 1, rng));
      return BoolExpr::conjunction(std::move(kids));
    }
    default: {
      std::vector<BoolExprPtr> kids;
      const int n = 2 + static_cast<int>(rng.index(2));
      for (int i = 0; i < n; ++i) kids.push_back(randomExpr(procs, depth - 1, rng));
      return BoolExpr::disjunction(std::move(kids));
    }
  }
}

TEST(BoolExprTest, EvaluateBasics) {
  const Computation c = flat(2, 1);
  VariableTrace t(c);
  t.defineBool(0, "x", {true, false});
  t.defineBool(1, "x", {false, true});
  const auto x0 = BoolExpr::var(0, "x");
  const auto x1 = BoolExpr::var(1, "x");
  const Cut cut(std::vector<int>{0, 0});
  EXPECT_TRUE(x0->evaluate(t, cut));
  EXPECT_FALSE(x1->evaluate(t, cut));
  EXPECT_FALSE(BoolExpr::conjunction({x0, x1})->evaluate(t, cut));
  EXPECT_TRUE(BoolExpr::disjunction({x0, x1})->evaluate(t, cut));
  EXPECT_FALSE(BoolExpr::negate(x0)->evaluate(t, cut));
}

TEST(BoolExprTest, ToStringReadable) {
  const auto e = BoolExpr::disjunction(
      {BoolExpr::negate(BoolExpr::var(0, "a")),
       BoolExpr::conjunction({BoolExpr::var(1, "b"), BoolExpr::var(2, "c")})});
  EXPECT_EQ(e->toString(), "(!(a@p0) | (b@p1 & c@p2))");
}

TEST(BoolExprTest, DnfOfVariable) {
  const auto dnf = toDnf(*BoolExpr::var(3, "x"));
  ASSERT_EQ(dnf.size(), 1u);
  ASSERT_EQ(dnf[0].size(), 1u);
  EXPECT_EQ(dnf[0][0].process, 3);
  EXPECT_TRUE(dnf[0][0].positive);
}

TEST(BoolExprTest, DnfPrunesContradictions) {
  // x ∧ ¬x: unsatisfiable → empty DNF.
  const auto x = BoolExpr::var(0, "x");
  const auto contradiction = BoolExpr::conjunction({x, BoolExpr::negate(x)});
  EXPECT_TRUE(toDnf(*contradiction).empty());
}

TEST(BoolExprTest, DeMorganNormalization) {
  // ¬(a ∨ b) = ¬a ∧ ¬b: one term with two negative literals.
  const auto e = BoolExpr::negate(BoolExpr::disjunction(
      {BoolExpr::var(0, "a"), BoolExpr::var(1, "b")}));
  const auto dnf = toDnf(*e);
  ASSERT_EQ(dnf.size(), 1u);
  ASSERT_EQ(dnf[0].size(), 2u);
  EXPECT_FALSE(dnf[0][0].positive);
  EXPECT_FALSE(dnf[0][1].positive);
}

TEST(BoolExprTest, DoubleNegationCancels) {
  const auto e = BoolExpr::negate(BoolExpr::negate(BoolExpr::var(0, "x")));
  const auto dnf = toDnf(*e);
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_TRUE(dnf[0][0].positive);
}

// CNF-shaped expression: And of `clauses` two-variable Ors. Its DNF has
// 2^clauses terms — the exponential distribution the budget must bound.
BoolExprPtr wideCnf(int clauses) {
  std::vector<BoolExprPtr> ands;
  for (int i = 0; i < clauses; ++i) {
    ands.push_back(BoolExpr::disjunction(
        {BoolExpr::var(2 * i, "x"), BoolExpr::var(2 * i + 1, "x")}));
  }
  return BoolExpr::conjunction(std::move(ands));
}

TEST(BoolExprTest, BudgetedExpansionRunsToCompletionWhenRoomy) {
  control::Budget roomy;  // unlimited
  const DnfExpansion full = toDnfBudgeted(*wideCnf(6), &roomy);
  EXPECT_TRUE(full.complete);
  EXPECT_EQ(full.terms.size(), 64u);  // 2^6
  // Identical to the unbudgeted convenience form.
  EXPECT_EQ(toDnf(*wideCnf(6)).size(), 64u);
}

TEST(BoolExprTest, CancelledBudgetStopsTheExpansionEarly) {
  // A pre-cancelled token trips keepGoing() at its first amortized poll;
  // the 2^10-term distribution makes far more than one poll period of
  // expansion steps, so the run must come back incomplete and truncated.
  control::CancelToken cancel;
  cancel.requestCancel();
  control::Budget budget(control::BudgetLimits{}, &cancel);
  const DnfExpansion partial = toDnfBudgeted(*wideCnf(10), &budget);
  EXPECT_FALSE(partial.complete);
  EXPECT_LT(partial.terms.size(), 1024u);
}

TEST(BoolExprTest, DnfEquivalentOnRandomExpressions) {
  Rng rng(11235);
  for (int trial = 0; trial < 60; ++trial) {
    const Computation c = flat(3, 2);
    VariableTrace t(c);
    defineRandomBools(t, "x", 0.5, rng);
    const auto expr = randomExpr(3, 3, rng);
    const auto dnf = toDnf(*expr);
    // Compare at every grid point.
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        for (int d = 0; d < 3; ++d) {
          const Cut cut(std::vector<int>{a, b, d});
          EXPECT_EQ(expr->evaluate(t, cut), evalDnf(dnf, t, cut))
              << "trial " << trial << " expr " << expr->toString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpd
