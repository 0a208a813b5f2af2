#include "detect/linear.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect/cpdhb.h"
#include "lattice/explore.h"
#include "predicates/random_trace.h"
#include "util/check.h"

namespace gpd::detect {
namespace {

TEST(LinearTest, ConjunctiveOracleMatchesCpdhb) {
  Rng rng(112);
  for (int trial = 0; trial < 80; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(4));
    opt.eventsPerProcess = 2 + static_cast<int>(rng.index(6));
    opt.messageProbability = rng.real() * 0.8;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.4, rng);
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      pred.terms.push_back(varTrue(p, "x"));
    }
    const VectorClocks vc(c);
    const LinearResult linear =
        detectLinear(vc, conjunctiveOracle(trace, pred));
    const ConjunctiveResult cpdhb = detectConjunctive(vc, trace, pred);
    ASSERT_EQ(linear.cut.has_value(), cpdhb.found) << "trial " << trial;
    if (linear.cut) {
      EXPECT_TRUE(vc.isConsistent(*linear.cut));
      EXPECT_TRUE(pred.holdsAtCut(trace, *linear.cut));
    }
  }
}

TEST(LinearTest, FindsLeastSatisfyingCut) {
  Rng rng(113);
  for (int trial = 0; trial < 40; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 3;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.5, rng);
    ConjunctivePredicate pred;
    for (ProcessId p = 0; p < 3; ++p) pred.terms.push_back(varTrue(p, "x"));
    const VectorClocks vc(c);
    const LinearResult res = detectLinear(vc, conjunctiveOracle(trace, pred));
    if (!res.cut) continue;
    // Minimality: every satisfying consistent cut contains res.cut.
    lattice::exploreConsistentCuts(vc, [&](const Cut& cut) {
      if (pred.holdsAtCut(trace, cut)) {
        EXPECT_TRUE(res.cut->subsetOf(cut))
            << res.cut->toString() << " vs " << cut.toString();
      }
      return true;
    });
  }
}

TEST(LinearTest, OracleCallsLinearInEvents) {
  Rng rng(114);
  RandomComputationOptions opt;
  opt.processes = 5;
  opt.eventsPerProcess = 40;
  opt.messageProbability = 0.4;
  const Computation c = randomComputation(opt, rng);
  VariableTrace trace(c);
  defineRandomBools(trace, "x", 0.05, rng);  // hard to satisfy: long walk
  ConjunctivePredicate pred;
  for (ProcessId p = 0; p < 5; ++p) pred.terms.push_back(varTrue(p, "x"));
  const VectorClocks vc(c);
  const LinearResult res = detectLinear(vc, conjunctiveOracle(trace, pred));
  EXPECT_LE(res.oracleCalls,
            static_cast<std::uint64_t>(c.totalEvents()) + 1);
}

TEST(LinearTest, ChannelsEmptyOracle) {
  // p0 sends to p1: the only nonempty-channel cuts are those containing the
  // send but not the receive.
  ComputationBuilder b(2);
  const EventId s = b.appendEvent(0);
  const EventId r = b.appendEvent(1);
  b.addMessage(s, r);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const auto oracle = channelsEmptyOracle(c);
  EXPECT_FALSE(oracle(initialCut(c)).has_value());   // nothing sent yet
  EXPECT_FALSE(oracle(finalCut(c)).has_value());     // everything received
  const Cut inFlight(std::vector<int>{1, 0});
  ASSERT_TRUE(oracle(inFlight).has_value());
  EXPECT_EQ(*oracle(inFlight), 1);  // the receiver is forbidden

  // The detector finds the least empty-channel cut ⊇ any start; from ⊥ that
  // is ⊥ itself.
  const LinearResult res = detectLinear(vc, oracle);
  ASSERT_TRUE(res.cut.has_value());
  EXPECT_EQ(*res.cut, initialCut(c));
}

TEST(LinearTest, TerminationOracleMatchesLattice) {
  Rng rng(115);
  for (int trial = 0; trial < 40; ++trial) {
    RandomComputationOptions opt;
    opt.processes = 3;
    opt.eventsPerProcess = 4;
    opt.messageProbability = 0.5;
    const Computation c = randomComputation(opt, rng);
    VariableTrace trace(c);
    // "active" flags that eventually drop to 0 on most processes.
    for (ProcessId p = 0; p < 3; ++p) {
      std::vector<std::int64_t> act(c.eventCount(p), 1);
      const int quietFrom =
          static_cast<int>(rng.index(c.eventCount(p) + 1));
      for (int i = quietFrom; i < c.eventCount(p); ++i) act[i] = 0;
      trace.define(p, "active", std::move(act));
    }
    const VectorClocks vc(c);
    const auto oracle = terminationOracle(trace, "active");
    const LinearResult res = detectLinear(vc, oracle);
    const bool expected = lattice::findSatisfyingCut(vc, [&](const Cut& cut) {
      return !oracle(cut).has_value();
    }).witness.has_value();
    ASSERT_EQ(res.cut.has_value(), expected) << "trial " << trial;
    if (res.cut) { EXPECT_FALSE(oracle(*res.cut).has_value()); }
  }
}

TEST(LinearTest, BadForbiddenProcessRejected) {
  ComputationBuilder b(1);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const auto oracle = [](const Cut&) { return std::optional<ProcessId>(7); };
  EXPECT_THROW(detectLinear(vc, oracle), CheckFailure);
}

}  // namespace
}  // namespace gpd::detect
