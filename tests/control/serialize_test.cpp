#include "control/serialize.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect/cpdhb.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "sim/workloads.h"

namespace gpd::control {
namespace {

using detect::TrueInterval;

std::vector<std::vector<TrueInterval>> intervalsOf(
    const VariableTrace& trace, const std::string& var,
    const std::vector<ProcessId>& procs) {
  std::vector<std::vector<TrueInterval>> out;
  for (ProcessId p : procs) {
    out.push_back(
        detect::trueIntervals(trace, varCompare(p, var, Relop::GreaterEq, 1)));
  }
  return out;
}

// No consistent cut of `comp` has two slots active.
bool mutualExclusionHolds(const Computation& comp, const VariableTrace& trace,
                          const std::string& var,
                          const std::vector<ProcessId>& procs) {
  const VectorClocks clocks(comp);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    for (std::size_t j = i + 1; j < procs.size(); ++j) {
      ConjunctivePredicate both{
          {varCompare(procs[i], var, Relop::GreaterEq, 1),
           varCompare(procs[j], var, Relop::GreaterEq, 1)}};
      if (detect::detectConjunctive(clocks, trace, both).found) return false;
    }
  }
  return true;
}

TEST(ControlTest, SerializesRogueTokenRing) {
  sim::TokenRingOptions opt;
  opt.processes = 4;
  opt.rounds = 2;
  opt.seed = 3;
  opt.rogueProcess = 2;
  const sim::SimResult run = sim::tokenRing(opt);
  const std::vector<ProcessId> procs{0, 1, 2, 3};
  // The uncontrolled trace violates mutual exclusion.
  ASSERT_FALSE(mutualExclusionHolds(*run.computation, *run.trace, "cs", procs));

  const VectorClocks clocks(*run.computation);
  const SerializationResult res =
      serializeIntervals(clocks, intervalsOf(*run.trace, "cs", procs));
  ASSERT_TRUE(res.feasible);
  EXPECT_FALSE(res.addedEdges.empty());
  const VariableTrace controlledTrace = run.trace->rebindTo(*res.controlled);
  EXPECT_TRUE(
      mutualExclusionHolds(*res.controlled, controlledTrace, "cs", procs));
}

TEST(ControlTest, NoEdgesNeededWhenAlreadySerialized) {
  // A clean token ring is already mutually exclusive; control may add
  // arrows (it totally serializes), but must stay feasible and correct.
  sim::TokenRingOptions opt;
  opt.processes = 4;
  opt.rounds = 2;
  opt.seed = 5;
  const sim::SimResult run = sim::tokenRing(opt);
  const std::vector<ProcessId> procs{0, 1, 2, 3};
  const VectorClocks clocks(*run.computation);
  const SerializationResult res =
      serializeIntervals(clocks, intervalsOf(*run.trace, "cs", procs));
  ASSERT_TRUE(res.feasible);
  const VariableTrace controlledTrace = run.trace->rebindTo(*res.controlled);
  EXPECT_TRUE(
      mutualExclusionHolds(*res.controlled, controlledTrace, "cs", procs));
}

TEST(ControlTest, DefinitelyOverlappingIntervalsAreInfeasible) {
  // Both processes are active from their initial event to the end: no
  // synchronization can separate them.
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  const VectorClocks clocks(c);
  std::vector<std::vector<TrueInterval>> intervals{
      {TrueInterval{{0, 0}, {0, 1}}}, {TrueInterval{{1, 0}, {1, 1}}}};
  const SerializationResult res = serializeIntervals(clocks, intervals);
  EXPECT_FALSE(res.feasible);
  ASSERT_TRUE(res.conflict.has_value());
}

TEST(ControlTest, ControlledRunsAreASubsetOfOriginalRuns) {
  sim::TokenRingOptions opt;
  opt.processes = 3;
  opt.rounds = 2;
  opt.seed = 7;
  opt.rogueProcess = 1;
  const sim::SimResult run = sim::tokenRing(opt);
  const std::vector<ProcessId> procs{0, 1, 2};
  const VectorClocks clocks(*run.computation);
  const SerializationResult res =
      serializeIntervals(clocks, intervalsOf(*run.trace, "cs", procs));
  ASSERT_TRUE(res.feasible);
  // Control only restricts: every consistent cut of the controlled
  // computation is consistent in the original.
  const VectorClocks controlledClocks(*res.controlled);
  const VectorClocks originalClocks(*run.computation);
  lattice::exploreConsistentCuts(controlledClocks, [&](const Cut& cut) {
    EXPECT_TRUE(originalClocks.isConsistent(cut)) << cut.toString();
    return true;
  });
  // Original messages all survive.
  for (const Message& m : run.computation->messages()) {
    EXPECT_NE(std::find(res.controlled->messages().begin(),
                        res.controlled->messages().end(), m),
              res.controlled->messages().end());
  }
}

TEST(ControlTest, RandomIntervalsEitherSerializedOrConflicted) {
  Rng rng(1212);
  int feasibleCount = 0;
  int infeasibleCount = 0;
  for (int trial = 0; trial < 50; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 5;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "a", 0.4, rng);
    const std::vector<ProcessId> procs{0, 1, 2};
    const VectorClocks clocks(c);
    const SerializationResult res =
        serializeIntervals(clocks, intervalsOf(trace, "a", procs));
    if (res.feasible) {
      ++feasibleCount;
      const VariableTrace controlled = trace.rebindTo(*res.controlled);
      EXPECT_TRUE(mutualExclusionHolds(*res.controlled, controlled, "a", procs))
          << "trial " << trial;
    } else {
      ++infeasibleCount;
      if (res.conflict) {
        // The reported pair really is mutually inseparable: each starts
        // causally before the other's end (or is open / starts at ⊥).
        const auto& [x, y] = *res.conflict;
        const bool xOpen = x.hi.index + 1 >= c.eventCount(x.hi.process);
        const bool yOpen = y.hi.index + 1 >= c.eventCount(y.hi.process);
        const bool xBeforeYImpossible =
            xOpen || y.lo.isInitial() ||
            clocks.leq(y.lo, {x.hi.process, x.hi.index + 1});
        const bool yBeforeXImpossible =
            yOpen || x.lo.isInitial() ||
            clocks.leq(x.lo, {y.hi.process, y.hi.index + 1});
        EXPECT_TRUE(xBeforeYImpossible && yBeforeXImpossible)
            << "trial " << trial;
      }
    }
  }
  EXPECT_GT(feasibleCount, 5);
  EXPECT_GT(infeasibleCount, 5);
}

}  // namespace
}  // namespace gpd::control
