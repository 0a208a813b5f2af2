#include "detect/stable.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "predicates/random_trace.h"
#include "sim/workloads.h"

namespace gpd::detect {
namespace {

TEST(StableTest, MonotoneCounterThresholdIsStable) {
  Rng rng(55);
  for (int trial = 0; trial < 25; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    // Non-decreasing counters: any ≥-threshold predicate on their sum is
    // stable.
    for (ProcessId p = 0; p < 3; ++p) {
      std::vector<std::int64_t> v(c.eventCount(p));
      std::int64_t x = 0;
      for (int i = 0; i < c.eventCount(p); ++i) {
        x += rng.index(3);
        v[i] = x;
      }
      trace.define(p, "n", std::move(v));
    }
    const VectorClocks vc(c);
    const auto phi = [&](const Cut& cut) {
      std::int64_t sum = 0;
      for (ProcessId p = 0; p < 3; ++p) sum += trace.valueAtCut(cut, p, "n");
      return sum >= 5;
    };
    EXPECT_TRUE(isStableOn(vc, phi)) << "trial " << trial;
    // Stable detection: evaluate at the final cut only; must agree with the
    // exhaustive possibly.
    const StableResult res = detectStable(c, phi);
    EXPECT_EQ(res.possibly,
              lattice::findSatisfyingCut(vc, phi).witness.has_value());
    EXPECT_EQ(res.definitely, lattice::decideDefinitely(vc, phi).holds);
  }
}

TEST(StableTest, CriticalSectionFlagIsNotStable) {
  sim::TokenRingOptions opt;
  opt.processes = 4;
  opt.rounds = 2;
  const sim::SimResult run = sim::tokenRing(opt);
  const VectorClocks vc(*run.computation);
  // "p0 in CS" flips on and off: not stable.
  const auto phi = [&](const Cut& cut) {
    return run.trace->valueAtCut(cut, 0, "cs") >= 1;
  };
  EXPECT_FALSE(isStableOn(vc, phi));
}

TEST(StableTest, DeadlockIsStable) {
  sim::PhilosophersOptions opt;
  opt.philosophers = 4;
  opt.meals = 2;
  opt.seed = 1;  // the deadlocking seed
  const sim::SimResult run = sim::diningPhilosophers(opt);
  const VectorClocks vc(*run.computation);
  // "everyone waiting" is stable *on this computation* (no event ever ends
  // the wait), and the stable detector sees it at the final cut.
  const auto phi = [&](const Cut& cut) {
    for (ProcessId p = 0; p < 4; ++p) {
      if (run.trace->valueAtCut(cut, p, "waiting") == 0) return false;
    }
    return true;
  };
  EXPECT_TRUE(isStableOn(vc, phi));
  const StableResult res = detectStable(*run.computation, phi);
  EXPECT_TRUE(res.possibly);
  EXPECT_TRUE(res.definitely);
}

TEST(StableTest, TokenLossIsStable) {
  sim::TokenRingOptions opt;
  opt.processes = 4;
  opt.tokens = 1;
  opt.rounds = 3;
  opt.dropTokenAtHop = 3;
  const sim::SimResult run = sim::tokenRing(opt);
  const VectorClocks vc(*run.computation);
  const Computation& c = *run.computation;
  // "all tokens lost": held count is zero and no token message in flight.
  const auto phi = [&](const Cut& cut) {
    std::int64_t held = 0;
    for (ProcessId p = 0; p < 4; ++p) {
      held += run.trace->valueAtCut(cut, p, "tokens");
    }
    if (held != 0) return false;
    for (const Message& m : c.messages()) {
      if (cut.contains(m.send) && !cut.contains(m.receive)) return false;
    }
    return true;
  };
  EXPECT_TRUE(isStableOn(vc, phi));
  EXPECT_TRUE(detectStable(c, phi).possibly);
}

TEST(StableTest, FalseEverywhereIsStableAndUndetected) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const auto never = [](const Cut&) { return false; };
  EXPECT_TRUE(isStableOn(vc, never));
  EXPECT_FALSE(detectStable(c, never).possibly);
}

}  // namespace
}  // namespace gpd::detect
