#include "detect/cpdsc.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "detect/singular_cnf.h"
#include "detect_test_util.h"
#include "predicates/random_trace.h"

namespace gpd::detect {
namespace {

using testing::latticePossiblyCnf;
using testing::randomSingularKCnf;

Groups consecutiveGroups(int groups, int groupSize) {
  Groups g(groups);
  for (int i = 0; i < groups; ++i) {
    for (int j = 0; j < groupSize; ++j) g[i].push_back(i * groupSize + j);
  }
  return g;
}

TEST(CpdscTest, GroupsOfSingularCnf) {
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{3, "x", true}, {2, "x", false}}};
  const Groups groups = groupsOfSingularCnf(pred);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<ProcessId>{2, 3}));
}

TEST(CpdscTest, GeneratedReceiveOrderedComputationsQualify) {
  Rng rng(515);
  for (int trial = 0; trial < 20; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 3;
    opt.groupSize = 2;
    opt.eventsPerProcess = 6;
    opt.messageProbability = 0.7;
    opt.discipline = OrderingDiscipline::ReceiveOrdered;
    const Computation c = randomGroupedComputation(opt, rng);
    const VectorClocks vc(c);
    EXPECT_TRUE(
        analyze::groupOrder(vc, consecutiveGroups(3, 2)).receiveOrdered);
  }
}

TEST(CpdscTest, GeneratedSendOrderedComputationsQualify) {
  Rng rng(516);
  for (int trial = 0; trial < 20; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 3;
    opt.groupSize = 2;
    opt.eventsPerProcess = 6;
    opt.messageProbability = 0.7;
    opt.discipline = OrderingDiscipline::SendOrdered;
    const Computation c = randomGroupedComputation(opt, rng);
    const VectorClocks vc(c);
    EXPECT_TRUE(analyze::groupOrder(vc, consecutiveGroups(3, 2)).sendOrdered);
  }
}

TEST(CpdscTest, SingleProcessGroupsAlwaysApplicable) {
  // Group size 1: receives on one process are totally ordered by the process
  // order, so every computation qualifies (CPDSC degenerates to CPDHB).
  Rng rng(517);
  RandomComputationOptions opt;
  opt.processes = 4;
  opt.eventsPerProcess = 6;
  opt.messageProbability = 0.8;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  EXPECT_TRUE(
      analyze::groupOrder(vc, consecutiveGroups(4, 1)).receiveOrdered);
}

struct SpecialCaseParams {
  OrderingDiscipline discipline;
  int groups;
  int groupSize;
  int events;
  double msgProb;
  double density;
};

class CpdscSweep : public ::testing::TestWithParam<SpecialCaseParams> {};

TEST_P(CpdscSweep, MatchesLatticeGroundTruth) {
  const SpecialCaseParams& params = GetParam();
  Rng rng(6000 + params.groups * 31 + params.groupSize * 7 +
          static_cast<int>(params.discipline) * 101 + params.events);
  int found = 0;
  int applicable = 0;
  for (int trial = 0; trial < 40; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = params.groups;
    opt.groupSize = params.groupSize;
    opt.eventsPerProcess = params.events;
    opt.messageProbability = params.msgProb;
    opt.discipline = params.discipline;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", params.density, rng);
    const CnfPredicate pred =
        randomSingularKCnf(params.groups, params.groupSize, "x", rng);
    const VectorClocks vc(c);
    const CpdscResult res = detectSingularSpecialCase(vc, trace, pred);
    ASSERT_TRUE(res.applicable()) << "generator broke the discipline?";
    ++applicable;
    const bool expected = latticePossiblyCnf(vc, trace, pred);
    ASSERT_EQ(res.found(), expected) << "trial " << trial;
    if (res.found()) {
      ++found;
      ASSERT_TRUE(res.cut.has_value());
      EXPECT_TRUE(vc.isConsistent(*res.cut));
      EXPECT_TRUE(pred.holdsAtCut(trace, *res.cut));
      for (const EventId& e : res.witness) {
        EXPECT_TRUE(res.cut->passesThrough(e));
      }
    }
  }
  EXPECT_GT(found, 0);
  EXPECT_EQ(applicable, 40);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CpdscSweep,
    ::testing::Values(
        SpecialCaseParams{OrderingDiscipline::ReceiveOrdered, 2, 2, 4, 0.6, 0.3},
        SpecialCaseParams{OrderingDiscipline::ReceiveOrdered, 3, 2, 3, 0.5, 0.35},
        SpecialCaseParams{OrderingDiscipline::ReceiveOrdered, 2, 3, 3, 0.6, 0.25},
        SpecialCaseParams{OrderingDiscipline::SendOrdered, 2, 2, 4, 0.6, 0.3},
        SpecialCaseParams{OrderingDiscipline::SendOrdered, 3, 2, 3, 0.5, 0.35},
        SpecialCaseParams{OrderingDiscipline::SendOrdered, 2, 3, 3, 0.6, 0.25}));

TEST(CpdscTest, AgreesWithGeneralAlgorithmsWhenApplicable) {
  Rng rng(618);
  for (int trial = 0; trial < 30; ++trial) {
    GroupedComputationOptions opt;
    opt.groups = 2;
    opt.groupSize = 2;
    opt.eventsPerProcess = 5;
    opt.messageProbability = 0.6;
    opt.discipline = trial % 2 == 0 ? OrderingDiscipline::ReceiveOrdered
                                    : OrderingDiscipline::SendOrdered;
    const Computation c = randomGroupedComputation(opt, rng);
    VariableTrace trace(c);
    defineRandomBools(trace, "x", 0.3, rng);
    const CnfPredicate pred = randomSingularKCnf(2, 2, "x", rng);
    const VectorClocks vc(c);
    const CpdscResult special = detectSingularSpecialCase(vc, trace, pred);
    const auto general = detectSingularByChainCover(vc, trace, pred);
    ASSERT_TRUE(special.applicable());
    EXPECT_EQ(special.found(), general.found) << "trial " << trial;
  }
}

// No clauses: every group order holds vacuously and the one scan, given
// no queues, answers at the initial cut.
TEST(CpdscTest, EmptyCnfHoldsAtTheInitialCut) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  const Computation c = std::move(b).build();
  const VariableTrace trace(c);
  const VectorClocks vc(c);
  const CpdscResult res = detectSingularSpecialCase(vc, trace, CnfPredicate{});
  ASSERT_TRUE(res.found());
  EXPECT_TRUE(res.witness.empty());
  ASSERT_TRUE(res.cut.has_value());
  EXPECT_EQ(res.cut->last, initialCut(c).last);
}

TEST(CpdscTest, NotApplicableOnCrossingReceives) {
  // Two processes in one group, each receiving from outside, with the
  // receives concurrent: not receive-ordered; sends on a third process
  // ordered... sends are on two different processes too → not send-ordered.
  ComputationBuilder b(4);
  const EventId s1 = b.appendEvent(2);
  const EventId s2 = b.appendEvent(3);
  const EventId r1 = b.appendEvent(0);
  const EventId r2 = b.appendEvent(1);
  b.addMessage(s1, r1);
  b.addMessage(s2, r2);
  const Computation c = std::move(b).build();
  VariableTrace trace(c);
  for (ProcessId p = 0; p < 4; ++p) {
    trace.defineBool(p, "x", std::vector<bool>(c.eventCount(p), true));
  }
  CnfPredicate pred;
  pred.clauses = {{{0, "x", true}, {1, "x", true}},
                  {{2, "x", true}, {3, "x", true}}};
  const VectorClocks vc(c);
  const analyze::GroupOrder order =
      analyze::groupOrder(vc, groupsOfSingularCnf(pred));
  EXPECT_FALSE(order.receiveOrdered);
  EXPECT_FALSE(order.sendOrdered);
  const CpdscResult res = detectSingularSpecialCase(vc, trace, pred);
  EXPECT_FALSE(res.applicable());
}

}  // namespace
}  // namespace gpd::detect
