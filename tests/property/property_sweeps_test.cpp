// Cross-cutting property sweeps: every efficient detector in the library is
// equivalent to exhaustive ground truth, per seed, as individually-reported
// parameterized cases. Each seed drives a fresh random computation and
// trace; a failure therefore names the exact seed to reproduce.
#include <gtest/gtest.h>

#include "gpd.h"

namespace gpd {
namespace {

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // A fresh random system per test, derived from the seed parameter.
  struct System {
    Computation comp;
    VariableTrace trace;
    VectorClocks clocks;

    System(Computation c, Rng& rng, double boolDensity)
        : comp(std::move(c)), trace(comp), clocks(comp) {
      defineRandomBools(trace, "b", boolDensity, rng);
      defineRandomCounters(trace, "x", 0, 1, rng);
    }
  };

  static System makeSystem(std::uint64_t seed, double msgProb,
                           double boolDensity) {
    Rng rng(seed * 2654435761u + 17);
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(3));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(4));
    opt.messageProbability = msgProb;
    Computation comp = randomComputation(opt, rng);
    return System(std::move(comp), rng, boolDensity);
  }

  static bool latticePossibly(const System& s,
                              const lattice::CutPredicate& phi) {
    return lattice::findSatisfyingCut(s.clocks, phi).witness.has_value();
  }
};

TEST_P(PropertySweep, CpdhbEquivalentToLattice) {
  const System s = makeSystem(GetParam(), 0.5, 0.4);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    pred.terms.push_back(varTrue(p, "b"));
  }
  const auto res = detect::detectConjunctive(s.clocks, s.trace, pred);
  EXPECT_EQ(res.found, latticePossibly(s, [&](const Cut& c) {
              return pred.holdsAtCut(s.trace, c);
            }));
}

TEST_P(PropertySweep, SingularAlgorithmsAgreeWithEachOtherAndLattice) {
  Rng rng(GetParam() * 31 + 7);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.3, rng);
  CnfPredicate pred;
  for (int g = 0; g < 2; ++g) {
    pred.clauses.push_back(
        {{2 * g, "b", rng.chance(0.5)}, {2 * g + 1, "b", rng.chance(0.5)}});
  }
  const VectorClocks clocks(comp);
  const bool expected = lattice::findSatisfyingCut(clocks, [&](const Cut& c) {
    return pred.holdsAtCut(trace, c);
  }).witness.has_value();
  EXPECT_EQ(detect::detectSingularByProcessEnumeration(clocks, trace, pred).found,
            expected);
  EXPECT_EQ(detect::detectSingularByChainCover(clocks, trace, pred).found,
            expected);
}

TEST_P(PropertySweep, SumExtremaBracketEveryCut) {
  const System s = makeSystem(GetParam(), 0.4, 0.5);
  std::vector<SumTerm> terms;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    terms.push_back({p, "x"});
  }
  const detect::SumExtrema ext = detect::sumExtrema(s.clocks, s.trace, terms);
  lattice::exploreConsistentCuts(s.clocks, [&](const Cut& cut) {
    std::int64_t sum = 0;
    for (const SumTerm& t : terms) {
      sum += s.trace.valueAtCut(cut, t.process, t.var);
    }
    EXPECT_GE(sum, ext.minSum);
    EXPECT_LE(sum, ext.maxSum);
    return true;
  });
}

TEST_P(PropertySweep, Theorem7ExactSumEquivalentToLattice) {
  const System s = makeSystem(GetParam(), 0.4, 0.5);
  std::vector<SumTerm> terms;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    terms.push_back({p, "x"});
  }
  for (std::int64_t k = -2; k <= 2; ++k) {
    SumPredicate pred{terms, Relop::Equal, k};
    const auto viaTheorem = detect::possiblySum(s.clocks, s.trace, pred);
    const auto viaLattice =
        detect::detectExactSum(s.clocks, s.trace, pred).witness;
    EXPECT_EQ(viaTheorem.has_value(), viaLattice.has_value()) << "K=" << k;
  }
}

TEST_P(PropertySweep, DefinitelyConjunctiveEquivalentToLattice) {
  const System s = makeSystem(GetParam(), 0.5, 0.6);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    pred.terms.push_back(varTrue(p, "b"));
  }
  const auto res = detect::definitelyConjunctive(s.clocks, s.trace, pred);
  EXPECT_EQ(res.holds, lattice::decideDefinitely(s.clocks, [&](const Cut& c) {
              return pred.holdsAtCut(s.trace, c);
            }).holds);
}

TEST_P(PropertySweep, DnfDecompositionEquivalentToLattice) {
  const System s = makeSystem(GetParam(), 0.5, 0.4);
  const int n = s.comp.processCount();
  // (b@0 ∧ ¬b@1) ∨ (b@last ∧ b@0): fixed shape, random trace.
  const auto expr = BoolExpr::disjunction(
      {BoolExpr::conjunction(
           {BoolExpr::var(0, "b"), BoolExpr::negate(BoolExpr::var(1 % n, "b"))}),
       BoolExpr::conjunction(
           {BoolExpr::var(n - 1, "b"), BoolExpr::var(0, "b")})});
  const auto res = detect::possiblyExpression(s.clocks, s.trace, *expr);
  EXPECT_EQ(res.cut.has_value(), latticePossibly(s, [&](const Cut& c) {
              return expr->evaluate(s.trace, c);
            }));
}

TEST_P(PropertySweep, LinearConjunctiveEquivalentToCpdhb) {
  const System s = makeSystem(GetParam(), 0.6, 0.35);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    pred.terms.push_back(varTrue(p, "b"));
  }
  const auto linear =
      detect::detectLinear(s.clocks, detect::conjunctiveOracle(s.trace, pred));
  const auto cpdhb = detect::detectConjunctive(s.clocks, s.trace, pred);
  EXPECT_EQ(linear.cut.has_value(), cpdhb.found);
}

TEST_P(PropertySweep, OnlineMonitorEquivalentToOffline) {
  const System s = makeSystem(GetParam(), 0.5, 0.3);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    pred.terms.push_back(varTrue(p, "b"));
  }
  const bool offline = detect::detectConjunctive(s.clocks, s.trace, pred).found;
  Rng rng(GetParam() + 99);
  const auto run = graph::randomLinearExtension(s.comp.toDag(), rng);
  monitor::ConjunctiveMonitor mon(s.comp.processCount());
  EXPECT_EQ(monitor::replayConjunctive(s.clocks, s.trace, pred, run, mon)
                .detected,
            offline);
}

TEST_P(PropertySweep, TraceIoRoundTripPreservesDetection) {
  const System s = makeSystem(GetParam(), 0.5, 0.4);
  std::stringstream buffer;
  io::writeTrace(buffer, s.comp, s.trace);
  const io::TraceFile loaded = io::readTrace(buffer);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < s.comp.processCount(); ++p) {
    pred.terms.push_back(varTrue(p, "b"));
  }
  const VectorClocks loadedClocks(*loaded.computation);
  EXPECT_EQ(detect::detectConjunctive(s.clocks, s.trace, pred).found,
            detect::detectConjunctive(loadedClocks, *loaded.trace, pred).found);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range<std::uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gpd
