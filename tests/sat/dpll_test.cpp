#include "sat/dpll.h"

#include <gtest/gtest.h>

namespace gpd::sat {
namespace {

// Satisfiability by truth-table enumeration.
bool bruteSat(const Cnf& cnf) {
  for (int mask = 0; mask < (1 << cnf.numVars); ++mask) {
    Assignment a(cnf.numVars);
    for (int v = 0; v < cnf.numVars; ++v) a[v] = mask >> v & 1;
    if (satisfies(cnf, a)) return true;
  }
  return cnf.numVars == 0 && cnf.clauses.empty();
}

TEST(DpllTest, TrivialSat) {
  Cnf cnf;
  cnf.numVars = 1;
  cnf.addClause({{0, true}});
  const auto a = solveDpll(cnf);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE((*a)[0]);
}

TEST(DpllTest, TrivialUnsat) {
  Cnf cnf;
  cnf.numVars = 1;
  cnf.addClause({{0, true}});
  cnf.addClause({{0, false}});
  EXPECT_FALSE(solveDpll(cnf).has_value());
}

TEST(DpllTest, EmptyClauseUnsat) {
  Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({});
  EXPECT_FALSE(solveDpll(cnf).has_value());
}

TEST(DpllTest, EmptyFormulaSat) {
  Cnf cnf;
  cnf.numVars = 3;
  const auto a = solveDpll(cnf);
  EXPECT_TRUE(a.has_value());
}

TEST(DpllTest, UnitPropagationChain) {
  // x0, x0→x1, x1→x2 forces all true.
  Cnf cnf;
  cnf.numVars = 3;
  cnf.addClause({{0, true}});
  cnf.addClause({{0, false}, {1, true}});
  cnf.addClause({{1, false}, {2, true}});
  const DpllResult res = solveDpllBudgeted(cnf, nullptr);
  ASSERT_TRUE(res.assignment.has_value());
  const Assignment& a = *res.assignment;
  EXPECT_TRUE(a[0] && a[1] && a[2]);
  EXPECT_EQ(res.stats.decisions, 0);  // fully determined by propagation
  EXPECT_GE(res.stats.propagations, 3);
}

TEST(DpllTest, PigeonholeTwoIntoOneUnsat) {
  // Two pigeons, one hole: p0h0, p1h0, !(p0h0 & p1h0). Vars: 0,1.
  Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({{0, true}});
  cnf.addClause({{1, true}});
  cnf.addClause({{0, false}, {1, false}});
  EXPECT_FALSE(solveDpll(cnf).has_value());
}

TEST(DpllTest, MatchesBruteForceOnRandomFormulas) {
  Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    const int vars = 3 + static_cast<int>(rng.index(8));  // 3..10
    const int clauses = 1 + static_cast<int>(rng.index(4 * vars));
    const Cnf cnf = randomKCnf(vars, clauses, std::min(3, vars), rng);
    const auto a = solveDpll(cnf);
    EXPECT_EQ(a.has_value(), bruteSat(cnf)) << "trial " << trial;
    if (a) { EXPECT_TRUE(satisfies(cnf, *a)); }
  }
}

TEST(DpllBudgetTest, NullBudgetIsExactlySolveDpll) {
  Rng rng(771);
  for (int trial = 0; trial < 40; ++trial) {
    const Cnf cnf = randomKCnf(4 + static_cast<int>(rng.index(4)),
                               1 + static_cast<int>(rng.index(16)), 3, rng);
    const DpllResult r = solveDpllBudgeted(cnf, nullptr);
    EXPECT_NE(r.outcome, SatOutcome::Unknown);
    EXPECT_EQ(r.outcome == SatOutcome::Satisfiable,
              solveDpll(cnf).has_value())
        << "trial " << trial;
    if (r.outcome == SatOutcome::Satisfiable) {
      ASSERT_TRUE(r.assignment.has_value());
      EXPECT_TRUE(satisfies(cnf, *r.assignment));
    }
  }
}

TEST(DpllBudgetTest, DecisionBudgetYieldsUnknownNeverUnsat) {
  // UNSAT never fits a one-decision budget unless propagation alone refutes:
  // a budget stop must come back Unknown, not a fake Unsatisfiable.
  Rng rng(772);
  int unknowns = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Cnf cnf = randomKCnf(8, 34, 3, rng);  // ratio > 4: mostly UNSAT
    const bool truth = solveDpll(cnf).has_value();
    control::BudgetLimits limits;
    limits.maxCombinations = 1;  // one DPLL decision
    control::Budget budget(limits);
    const DpllResult r = solveDpllBudgeted(cnf, &budget);
    switch (r.outcome) {
      case SatOutcome::Satisfiable:
        EXPECT_TRUE(truth) << "trial " << trial;
        ASSERT_TRUE(r.assignment.has_value());
        EXPECT_TRUE(satisfies(cnf, *r.assignment));
        break;
      case SatOutcome::Unsatisfiable:
        EXPECT_FALSE(truth) << "trial " << trial;
        break;
      case SatOutcome::Unknown:
        ++unknowns;
        EXPECT_EQ(budget.reason(), control::StopReason::CombinationLimit);
        EXPECT_FALSE(r.assignment.has_value());
        break;
    }
  }
  EXPECT_GT(unknowns, 0);
}

}  // namespace
}  // namespace gpd::sat
