// Budgeted-detection properties (the anytime contract of DESIGN.md §8):
//
//   1. A budgeted run that completes within its budget is bit-identical to
//      the unbudgeted run — same outcome, same witness cut, and the same
//      lastAlgorithm() string (the budget must not change routing).
//   2. Under an arbitrarily tiny budget the answer is either the exact
//      unbudgeted answer or Unknown with a stop reason naming a limit that
//      actually tripped — never a wrong Yes/No.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "control/budget.h"
#include "detect/detector.h"
#include "detect/detector_corpus.h"

namespace gpd::detect {
namespace {

using testing::allTrue;
using testing::Corpus;
using testing::mixedExpr;
using testing::nonSingularCnf;
using testing::singularCnf;
using testing::sumPred;

control::Budget generousBudget() {
  control::BudgetLimits limits;
  limits.deadlineMillis = 60000;  // never trips in a unit test
  return control::Budget(limits);
}

// Asserts the three-valued Detection against a tripped-or-exact contract:
// Yes/No must match `truth`, Unknown must name a limit that actually fired
// and must stay within the configured limits.
void expectSoundUnderLimits(const Detection& d, bool truth,
                            const control::BudgetLimits& limits,
                            const std::string& label) {
  switch (d.outcome) {
    case Outcome::Yes:
      EXPECT_TRUE(truth) << label << ": budgeted Yes but ground truth is No";
      break;
    case Outcome::No:
      EXPECT_FALSE(truth) << label << ": budgeted No but ground truth is Yes";
      break;
    case Outcome::Unknown:
      EXPECT_NE(d.stopReason, control::StopReason::None)
          << label << ": Unknown without a tripped limit";
      break;
  }
  if (limits.maxCuts != 0) {
    EXPECT_LE(d.progress.cutsVisited, limits.maxCuts) << label;
    if (d.stopReason == control::StopReason::CutLimit) {
      EXPECT_EQ(d.progress.cutsVisited, limits.maxCuts) << label;
    }
  }
  if (limits.maxCombinations != 0) {
    EXPECT_LE(d.progress.combinationsTried, limits.maxCombinations) << label;
    if (d.stopReason == control::StopReason::CombinationLimit) {
      EXPECT_EQ(d.progress.combinationsTried, limits.maxCombinations) << label;
    }
  }
}

template <typename Pred>
void expectPossiblyBitIdentical(Detector& det, const VariableTrace& trace,
                                const Pred& pred, const std::string& label) {
  const std::optional<Cut> exact = det.possibly(pred);
  const std::string algorithm = det.lastAlgorithm();
  control::Budget budget = generousBudget();
  const Detection d = det.possibly(pred, budget);
  ASSERT_NE(d.outcome, Outcome::Unknown) << label << ": generous budget";
  EXPECT_EQ(d.outcome == Outcome::Yes, exact.has_value()) << label;
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_TRUE(d.skippedSteps.empty()) << label;
  if (exact.has_value()) {
    ASSERT_TRUE(d.witness.has_value()) << label;
    EXPECT_EQ(d.witness->last, exact->last) << label;
    EXPECT_TRUE(pred.holdsAtCut(trace, *d.witness)) << label;
  } else {
    EXPECT_FALSE(d.witness.has_value()) << label;
  }
}

template <typename Pred>
void expectDefinitelyBitIdentical(Detector& det, const Pred& pred,
                                  const std::string& label) {
  const bool exact = det.definitely(pred);
  const std::string algorithm = det.lastAlgorithm();
  control::Budget budget = generousBudget();
  const Detection d = det.definitely(pred, budget);
  ASSERT_NE(d.outcome, Outcome::Unknown) << label << ": generous budget";
  EXPECT_EQ(d.outcome == Outcome::Yes, exact) << label;
  EXPECT_EQ(d.algorithm, algorithm) << label;
  EXPECT_TRUE(d.skippedSteps.empty()) << label;
}

TEST(BudgetPropertyTest, GenerousBudgetIsBitIdenticalToUnbudgeted) {
  Rng rng(271828);
  for (int trial = 0; trial < 25; ++trial) {
    Corpus corpus(rng, trial);
    Detector det(corpus.trace);
    const std::string t = "trial " + std::to_string(trial);

    expectPossiblyBitIdentical(det, corpus.trace, allTrue(4), t + " conj");
    expectPossiblyBitIdentical(det, corpus.trace, singularCnf(rng),
                               t + " singular-cnf");
    expectPossiblyBitIdentical(det, corpus.trace, nonSingularCnf(rng),
                               t + " non-singular-cnf");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c1", Relop::GreaterEq, 1),
                               t + " sum-ge");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c1", Relop::Equal, 1), t + " sum-eq");
    expectPossiblyBitIdentical(det, corpus.trace,
                               sumPred("c2", Relop::Equal, 2),
                               t + " sum-eq-wide");
    std::vector<SumTerm> vars;
    for (ProcessId p = 0; p < 4; ++p) vars.push_back({p, "x"});
    expectPossiblyBitIdentical(det, corpus.trace, notAllEqual(vars),
                               t + " symmetric");

    expectDefinitelyBitIdentical(det, allTrue(4), t + " def-conj");
    expectDefinitelyBitIdentical(det, singularCnf(rng), t + " def-cnf");
    expectDefinitelyBitIdentical(det, sumPred("c1", Relop::GreaterEq, 1),
                                 t + " def-sum-ge");
    expectDefinitelyBitIdentical(det, sumPred("c1", Relop::Equal, 1),
                                 t + " def-sum-eq");
    expectDefinitelyBitIdentical(det, notAllEqual(vars), t + " def-sym");

    // BoolExpr possibly (witness verified through evaluate()).
    const BoolExprPtr expr = mixedExpr();
    const std::optional<Cut> exact = det.possibly(*expr);
    const std::string algorithm = det.lastAlgorithm();
    control::Budget budget = generousBudget();
    const Detection d = det.possibly(*expr, budget);
    ASSERT_NE(d.outcome, Outcome::Unknown) << t << " expr";
    EXPECT_EQ(d.outcome == Outcome::Yes, exact.has_value()) << t << " expr";
    EXPECT_EQ(d.algorithm, algorithm) << t << " expr";
    if (exact.has_value()) {
      ASSERT_TRUE(d.witness.has_value()) << t << " expr";
      EXPECT_EQ(d.witness->last, exact->last) << t << " expr";
      EXPECT_TRUE(expr->evaluate(corpus.trace, *d.witness)) << t << " expr";
    }
  }
}

TEST(BudgetPropertyTest, TinyBudgetsAreExactOrHonestlyUnknown) {
  Rng rng(314159);
  int unknowns = 0;
  int exacts = 0;
  for (int trial = 0; trial < 15; ++trial) {
    Corpus corpus(rng, trial);
    Detector det(corpus.trace);
    const std::string t = "trial " + std::to_string(trial);

    const CnfPredicate singular = singularCnf(rng);
    const CnfPredicate nonSingular = nonSingularCnf(rng);
    const SumPredicate wide = sumPred("c2", Relop::Equal, 2);

    const bool singularTruth = det.possibly(singular).has_value();
    const bool nonSingularTruth = det.possibly(nonSingular).has_value();
    const bool wideTruth = det.possibly(wide).has_value();
    const bool defTruth = det.definitely(nonSingular);

    for (const std::uint64_t cap : {1, 2, 4, 16}) {
      for (const bool capCuts : {false, true}) {
        control::BudgetLimits limits;
        (capCuts ? limits.maxCuts : limits.maxCombinations) = cap;
        const std::string label =
            t + (capCuts ? " cuts=" : " combos=") + std::to_string(cap);

        for (const CnfPredicate* pred : {&singular, &nonSingular}) {
          control::Budget budget(limits);
          const Detection d = det.possibly(*pred, budget);
          const bool truth =
              pred == &singular ? singularTruth : nonSingularTruth;
          expectSoundUnderLimits(d, truth, limits, label + " cnf");
          if (d.outcome == Outcome::Yes) {
            ASSERT_TRUE(d.witness.has_value()) << label;
            EXPECT_TRUE(pred->holdsAtCut(corpus.trace, *d.witness)) << label;
          }
          (d.outcome == Outcome::Unknown ? unknowns : exacts) += 1;
        }

        control::Budget wideBudget(limits);
        expectSoundUnderLimits(det.possibly(wide, wideBudget), wideTruth,
                               limits, label + " sum-eq-wide");

        control::Budget defBudget(limits);
        expectSoundUnderLimits(det.definitely(nonSingular, defBudget),
                               defTruth, limits, label + " def-cnf");
      }
    }
  }
  // The sweep must actually exercise both regimes.
  EXPECT_GT(unknowns, 0);
  EXPECT_GT(exacts, 0);
}

}  // namespace
}  // namespace gpd::detect
