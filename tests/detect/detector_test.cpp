#include "detect/detector.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect_test_util.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

TEST(DetectorTest, ConjunctiveDispatchesToCpdhb) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "y", {false, true});
  Detector det(trace);
  ConjunctivePredicate pred{{varTrue(0, "x"), varTrue(1, "y")}};
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "cpdhb");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
}

TEST(DetectorTest, SingularCnfUsesSpecialCaseWhenApplicable) {
  Rng rng(11);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 5;
  opt.messageProbability = 0.6;
  opt.discipline = OrderingDiscipline::ReceiveOrdered;
  const Computation c = randomGroupedComputation(opt, rng);
  VariableTrace trace(c);
  defineRandomBools(trace, "x", 0.4, rng);
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", false}}};
  Detector det(trace);
  det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "cpdsc-special-case");
}

TEST(DetectorTest, SingularCnfFallsBackToChainCover) {
  // Crossing receives inside both groups defeat both orderings.
  ComputationBuilder b(4);
  const EventId s1 = b.appendEvent(2);
  const EventId s2 = b.appendEvent(3);
  const EventId r1 = b.appendEvent(0);
  const EventId r2 = b.appendEvent(1);
  const EventId s3 = b.appendEvent(0);
  const EventId s4 = b.appendEvent(1);
  const EventId r3 = b.appendEvent(2);
  const EventId r4 = b.appendEvent(3);
  b.addMessage(s1, r1);
  b.addMessage(s2, r2);
  b.addMessage(s3, r3);
  b.addMessage(s4, r4);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  for (ProcessId p = 0; p < 4; ++p) {
    trace.defineBool(p, "x", std::vector<bool>(c.eventCount(p), true));
  }
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", true}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "singular-chain-cover");
  EXPECT_TRUE(cut.has_value());
}

TEST(DetectorTest, NonSingularCnfWithSkeletonSlicesFirst) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {true, false});
  trace.defineBool(1, "y", {true});
  CnfPredicate pred;
  // The single-process second clause is a regular skeleton: the planner
  // routes the lattice search through the slice-first pre-pass.
  pred.clauses = {{{0, "x", true}, {1, "y", true}}, {{0, "x", false}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "slice-first");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
  ASSERT_TRUE(det.lastSlice().has_value());
  EXPECT_TRUE(det.lastSlice()->usedSlice);
  EXPECT_EQ(det.lastSlice()->eventsTotal, 3u);

  // Forcing slicing off must reproduce the historical unsliced path with
  // the same verdict.
  det.enableSlicing(false);
  const auto unsliced = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  ASSERT_TRUE(unsliced.has_value());
  EXPECT_EQ(*unsliced, *cut);
  EXPECT_FALSE(det.lastSlice().has_value());
}

TEST(DetectorTest, NonSingularCnfWithoutSkeletonUsesLattice) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {true, false});
  trace.defineBool(1, "y", {false, true});
  CnfPredicate pred;
  // Every clause spans both processes: no regular skeleton to slice on.
  pred.clauses = {{{0, "x", true}, {1, "y", true}},
                  {{0, "x", false}, {1, "y", false}}};
  Detector det(trace);
  const auto cut = det.possibly(pred);
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(pred.holdsAtCut(trace, *cut));
  EXPECT_FALSE(det.lastSlice().has_value());
}

TEST(DetectorTest, SumDispatch) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 1});
  trace.define(1, "x", {0, 1});
  Detector det(trace);

  SumPredicate ge{{{0, "x"}, {1, "x"}}, Relop::GreaterEq, 2};
  EXPECT_TRUE(det.possibly(ge).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "min-cut-extrema");

  SumPredicate eq{{{0, "x"}, {1, "x"}}, Relop::Equal, 1};
  EXPECT_TRUE(det.possibly(eq).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "theorem-7-exact-sum");
}

TEST(DetectorTest, UnboundedExactSumFallsBackToLattice) {
  ComputationBuilder b(1);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 7});
  Detector det(trace);
  SumPredicate eq{{{0, "x"}}, Relop::Equal, 7};
  EXPECT_TRUE(det.possibly(eq).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration");
  eq.k = 3;
  EXPECT_FALSE(det.possibly(eq).has_value());
}

// Checks that `run` goes from ⊥ to ⊤ one event at a time through
// consistent cuts none of which satisfies `phi`.
void expectAvoidingRun(const VectorClocks& vc, const std::vector<Cut>& run,
                       const lattice::CutPredicate& phi) {
  ASSERT_FALSE(run.empty());
  EXPECT_EQ(run.front(), initialCut(vc.computation()));
  EXPECT_EQ(run.back(), finalCut(vc.computation()));
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_TRUE(vc.isConsistent(run[i])) << i;
    EXPECT_FALSE(phi(run[i])) << i;
    if (i > 0) {
      EXPECT_TRUE(run[i - 1].subsetOf(run[i])) << i;
      EXPECT_EQ(run[i].level(), run[i - 1].level() + 1) << i;
    }
  }
}

// Exact sums with steps above 1: a K outside [min S, max S] is refuted by
// the range test on both modalities; one inside runs the lattice search.
// Either way the route stays the lattice one, and a definitely "no"
// carries an avoiding run.
TEST(DetectorTest, ExactSumOutsideTheRangeIsNoOnBothModalities) {
  ComputationBuilder b(2);
  const EventId send = b.appendEvent(0);
  b.appendEvent(0);
  const EventId recv = b.appendEvent(1);
  b.addMessage(send, recv);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.define(0, "x", {0, 3, 1});
  trace.define(1, "x", {0, 2});
  const std::vector<SumTerm> xs{{0, "x"}, {1, "x"}};
  Detector det(trace);
  // Cuts: [0,0] 0, [1,0] 3, [1,1] 5, [2,0] 1, [2,1] 3.
  for (const std::int64_t k : {-1, 2, 4, 6}) {
    const SumPredicate eq{xs, Relop::Equal, k};
    EXPECT_FALSE(det.possibly(eq).has_value()) << k;
    EXPECT_EQ(det.lastAlgorithm(), "lattice-enumeration") << k;
    control::Budget unlimited;
    const Detection d = det.definitely(eq, unlimited);
    EXPECT_EQ(d.outcome, Outcome::No) << k;
    EXPECT_EQ(det.lastAlgorithm(), "lattice-definitely") << k;
    expectAvoidingRun(det.clocks(), d.avoidingRun, eq.bind(trace));
  }
  const SumPredicate five{xs, Relop::Equal, 5};
  EXPECT_EQ(det.possibly(five), Cut(std::vector<int>{1, 1}));
  EXPECT_FALSE(det.definitely(five));  // running p0 to its end first
  const SumPredicate three{xs, Relop::Equal, 3};
  EXPECT_TRUE(det.definitely(three));  // ⊤ has S = 3
  control::Budget unlimited;
  EXPECT_TRUE(det.definitely(three, unlimited).avoidingRun.empty());
}

TEST(DetectorTest, SymmetricAndDefinitely) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  trace.defineBool(0, "x", {false, true});
  trace.defineBool(1, "x", {false});
  Detector det(trace);

  std::vector<SumTerm> vars{{0, "x"}, {1, "x"}};
  const auto nae = notAllEqual(vars);
  EXPECT_TRUE(det.possibly(nae).has_value());
  EXPECT_EQ(det.lastAlgorithm(), "symmetric-exact-sum-disjunction");
  // p0 must eventually flip to true and p1 stays false: in every run the
  // states diverge at the end, but the initial state is all-false... the
  // *final* cut always has exactly one true — definitely holds.
  EXPECT_TRUE(det.definitely(nae));

  SumPredicate eq{vars, Relop::Equal, 1};
  EXPECT_TRUE(det.definitely(eq));
  EXPECT_EQ(det.lastAlgorithm(), "theorem-7-definitely");
}

// Cross-check the facade against ground truth on random inputs of each class.
TEST(DetectorTest, FacadeMatchesLatticeEverywhere) {
  Rng rng(31415);
  for (int trial = 0; trial < 30; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    opt.discipline = trial % 3 == 0 ? OrderingDiscipline::None
                     : trial % 3 == 1 ? OrderingDiscipline::ReceiveOrdered
                                      : OrderingDiscipline::SendOrdered;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.35, rng);
    const VectorClocks vc(c);
    Detector det(trace);

    CnfPredicate cnf;
    cnf.clauses = {{{0, "x", true}, {1, "x", rng.chance(0.5)}},
                   {{2, "x", rng.chance(0.5)}, {3, "x", true}}};
    const bool expected = lattice::findSatisfyingCut(vc, [&](const Cut& cut) {
      return cnf.holdsAtCut(trace, cut);
    }).witness.has_value();
    EXPECT_EQ(det.possibly(cnf).has_value(), expected) << "trial " << trial;
  }
}

// A query routed to singular-chain-cover without skeleton pruning hands the
// planner's covers to the enumeration. It must scan exactly what the
// kernel scans when it covers the clause-true events itself: same verdict,
// witness, selections tried and enumeration space, with and without a pool.
TEST(DetectorTest, SharedCoverMatchesRecomputedCover) {
  par::Pool pool(4);
  int checked = 0;
  int found = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    GroupedComputationOptions opt;
    opt.groups = 2 + static_cast<int>(rng.index(2));
    opt.groupSize = 2 + static_cast<int>(rng.index(2));
    opt.eventsPerProcess = 3 + static_cast<int>(rng.index(4));
    opt.messageProbability = 0.8;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.05 + 0.2 * rng.real(), rng);
    const CnfPredicate pred =
        testing::randomSingularKCnf(opt.groups, opt.groupSize, "x", rng);
    Detector det(trace);
    const SingularCnfResult kernel =
        detectSingularByChainCover(det.clocks(), trace, pred);
    for (par::Pool* p : {static_cast<par::Pool*>(nullptr), &pool}) {
      det.usePool(p);
      control::Budget unlimited;
      const Detection got = det.possibly(pred, unlimited);
      if (got.algorithm != "singular-chain-cover") break;
      ASSERT_FALSE(det.lastSlice().has_value()) << "seed " << seed;
      const std::string where =
          "seed " + std::to_string(seed) + (p != nullptr ? " pooled" : "");
      EXPECT_EQ(got.outcome, kernel.found ? Outcome::Yes : Outcome::No)
          << where;
      EXPECT_EQ(got.witness, kernel.cut) << where;
      EXPECT_EQ(got.progress.combinationsTried, kernel.combinationsTried)
          << where;
      EXPECT_EQ(det.lastReport().chosen().predictedCpdhbInvocations,
                kernel.combinationsTotal)
          << where;
      ++checked;
      found += kernel.found;
    }
  }
  EXPECT_GE(checked, 100) << "too few seeds routed to singular-chain-cover";
  EXPECT_GT(found, 0);
  EXPECT_LT(found, checked);
}

// With the skeleton pruning active the enumeration covers the admitted
// events only, so the detector builds that cover itself. Its verdict still
// matches the unpruned kernel's.
TEST(DetectorTest, PrunedQueryRebuildsItsCover) {
  int pruned = 0;
  for (std::uint64_t seed = 1; seed <= 40 && pruned == 0; ++seed) {
    Rng rng(seed);
    GroupedComputationOptions opt;
    opt.groups = 5;
    opt.groupSize = 3;
    opt.eventsPerProcess = 6;
    opt.messageProbability = 0.2;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    CnfPredicate pred = testing::randomSingularKCnf(4, 3, "x", rng);
    pred.clauses.push_back({{12, "x", true}});
    Detector det(trace);
    control::Budget unlimited;
    const Detection got = det.possibly(pred, unlimited);
    if (got.algorithm != "singular-chain-cover" || !det.lastSlice() ||
        !det.lastSlice()->usedSlice) {
      continue;
    }
    ++pruned;
    const SingularCnfResult kernel =
        detectSingularByChainCover(det.clocks(), trace, pred);
    ASSERT_EQ(got.outcome, kernel.found ? Outcome::Yes : Outcome::No)
        << "seed " << seed;
    if (got.witness) {
      EXPECT_TRUE(pred.holdsAtCut(trace, *got.witness)) << "seed " << seed;
    }
  }
  EXPECT_EQ(pruned, 1) << "no seed activated the skeleton pruning";
}

}  // namespace
}  // namespace gpd::detect
