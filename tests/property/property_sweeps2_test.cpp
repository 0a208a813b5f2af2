// Property sweep, wave two: the special-case and extension detectors, per
// seed, as individually-reported parameterized cases.
#include <gtest/gtest.h>

#include "gpd.h"

namespace gpd {
namespace {

class PropertySweep2 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep2, CpdscReceiveOrderedEquivalentToLattice) {
  Rng rng(GetParam() * 7919 + 1);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.6;
  opt.discipline = GetParam() % 2 ? OrderingDiscipline::ReceiveOrdered
                                  : OrderingDiscipline::SendOrdered;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.3, rng);
  CnfPredicate pred;
  for (int g = 0; g < 2; ++g) {
    pred.clauses.push_back(
        {{2 * g, "b", rng.chance(0.5)}, {2 * g + 1, "b", rng.chance(0.5)}});
  }
  const VectorClocks clocks(comp);
  const detect::CpdscResult res =
      detect::detectSingularSpecialCase(clocks, trace, pred);
  ASSERT_TRUE(res.applicable());
  EXPECT_EQ(res.found(), lattice::findSatisfyingCut(clocks, [&](const Cut& c) {
              return pred.holdsAtCut(trace, c);
            }).witness.has_value());
}

TEST_P(PropertySweep2, SymmetricDetectionEquivalentToLattice) {
  Rng rng(GetParam() * 104729 + 3);
  RandomComputationOptions opt;
  opt.processes = 4;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.35, rng);
  std::vector<SumTerm> vars;
  for (ProcessId p = 0; p < 4; ++p) vars.push_back({p, "b"});
  const VectorClocks clocks(comp);
  for (const SymmetricPredicate& pred :
       {exclusiveOr(vars), absenceOfSimpleMajority(vars), exactlyK(vars, 2)}) {
    const auto witness = detect::possiblySymmetric(clocks, trace, pred);
    EXPECT_EQ(witness.has_value(),
              lattice::findSatisfyingCut(clocks, [&](const Cut& c) {
                return pred.holdsAtCut(trace, c);
              }).witness.has_value())
        << pred.name;
  }
}

TEST_P(PropertySweep2, InequalityLoweringEquivalentToLattice) {
  Rng rng(GetParam() * 65537 + 5);
  GroupedComputationOptions opt;
  opt.groups = 2;
  opt.groupSize = 2;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.4;
  const Computation comp = randomGroupedComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomCounters(trace, "v", 0, 2, rng);
  const Relop ops[] = {Relop::Less, Relop::LessEq, Relop::Greater,
                       Relop::GreaterEq, Relop::NotEqual};
  CnfPredicate pred;  // Corollary 2: comparison literals, plain CNF query
  for (int g = 0; g < 2; ++g) {
    pred.clauses.push_back(
        {{2 * g, "v", true, ops[rng.index(5)], rng.uniform(-2, 2)},
         {2 * g + 1, "v", true, ops[rng.index(5)], rng.uniform(-2, 2)}});
  }
  detect::Detector det(trace);
  EXPECT_EQ(det.possibly(pred).has_value(),
            lattice::findSatisfyingCut(det.clocks(), [&](const Cut& c) {
              return pred.holdsAtCut(trace, c);
            }).witness.has_value());
}

TEST_P(PropertySweep2, SliceMembershipEquivalentToPredicate) {
  Rng rng(GetParam() * 15485863 + 11);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 3;
  opt.messageProbability = 0.5;
  const Computation comp = randomComputation(opt, rng);
  VariableTrace trace(comp);
  defineRandomBools(trace, "b", 0.5, rng);
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < 3; ++p) pred.terms.push_back(varTrue(p, "b"));
  const VectorClocks clocks(comp);
  const detect::Slice slice =
      detect::computeSlice(clocks, detect::conjunctiveOracle(trace, pred));
  lattice::exploreConsistentCuts(clocks, [&](const Cut& cut) {
    EXPECT_EQ(detect::sliceSatisfies(slice, clocks, cut),
              pred.holdsAtCut(trace, cut));
    return true;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep2,
                         ::testing::Range<std::uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gpd
