#include "control/budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace gpd::control {
namespace {

TEST(BudgetTest, DefaultBudgetIsUnlimited) {
  Budget b;
  EXPECT_TRUE(b.limits().unlimited());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(b.chargeCut());
    EXPECT_TRUE(b.chargeCombination());
  }
  EXPECT_TRUE(b.keepGoing());
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.reason(), StopReason::None);
  // Progress is still metered even when nothing can trip.
  EXPECT_EQ(b.progress().cutsVisited, 1000u);
  EXPECT_EQ(b.progress().combinationsTried, 1000u);
  EXPECT_EQ(b.remainingCombinations(), UINT64_MAX);
}

TEST(BudgetTest, CutLimitTripsWithoutCountingTheFailingCharge) {
  BudgetLimits limits;
  limits.maxCuts = 5;
  Budget b(limits);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(b.chargeCut()) << "charge " << i;
  EXPECT_FALSE(b.chargeCut());
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.reason(), StopReason::CutLimit);
  // cutsVisited reports work actually performed, not attempts.
  EXPECT_EQ(b.progress().cutsVisited, 5u);
}

TEST(BudgetTest, CombinationLimitTripsAndTracksRemaining) {
  BudgetLimits limits;
  limits.maxCombinations = 3;
  Budget b(limits);
  EXPECT_EQ(b.remainingCombinations(), 3u);
  EXPECT_TRUE(b.chargeCombination());
  EXPECT_EQ(b.remainingCombinations(), 2u);
  EXPECT_TRUE(b.chargeCombination());
  EXPECT_TRUE(b.chargeCombination());
  EXPECT_EQ(b.remainingCombinations(), 0u);
  EXPECT_FALSE(b.chargeCombination());
  EXPECT_EQ(b.reason(), StopReason::CombinationLimit);
  EXPECT_EQ(b.progress().combinationsTried, 3u);
}

TEST(BudgetTest, ExhaustionLatchesAndFirstCauseWins) {
  BudgetLimits limits;
  limits.maxCuts = 1;
  limits.maxCombinations = 1;
  Budget b(limits);
  EXPECT_TRUE(b.chargeCut());
  EXPECT_FALSE(b.chargeCut());  // trips CutLimit first
  // Every later charge of any kind fails, and the reason stays the first.
  EXPECT_FALSE(b.chargeCombination());
  EXPECT_FALSE(b.chargeCut());
  EXPECT_FALSE(b.keepGoing());
  EXPECT_FALSE(b.noteFrontierBytes(1));
  EXPECT_EQ(b.reason(), StopReason::CutLimit);
  // No work was charged after the latch.
  EXPECT_EQ(b.progress().cutsVisited, 1u);
  EXPECT_EQ(b.progress().combinationsTried, 0u);
}

TEST(BudgetTest, FrontierLimitTracksPeakAndTrips) {
  BudgetLimits limits;
  limits.maxFrontierBytes = 1000;
  Budget b(limits);
  EXPECT_TRUE(b.noteFrontierBytes(100));
  EXPECT_TRUE(b.noteFrontierBytes(900));
  EXPECT_TRUE(b.noteFrontierBytes(200));  // shrinking is fine
  EXPECT_EQ(b.progress().peakFrontierBytes, 900u);
  EXPECT_FALSE(b.noteFrontierBytes(1001));
  EXPECT_EQ(b.reason(), StopReason::FrontierLimit);
  // The over-limit report still registers as the peak (it was observed).
  EXPECT_EQ(b.progress().peakFrontierBytes, 1001u);
}

TEST(BudgetTest, DeadlineTripsOnceElapsed) {
  BudgetLimits limits;
  limits.deadlineMillis = 1;
  Budget b(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The combination poll counter starts at zero, so the very first charge
  // reads the clock and observes the passed deadline immediately.
  EXPECT_FALSE(b.chargeCombination());
  EXPECT_EQ(b.reason(), StopReason::Deadline);
}

TEST(BudgetTest, DeadlineObservedWithinOneCombinationPollPeriod) {
  BudgetLimits limits;
  limits.deadlineMillis = 1;
  Budget b(limits);
  ASSERT_TRUE(b.chargeCombination());  // first charge: deadline not yet due
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // The clock read is amortized (every 16th combination charge), so the
  // passed deadline must be observed within one poll period.
  int charges = 1;
  while (b.chargeCombination()) {
    ASSERT_LT(++charges, 17) << "deadline not observed within a poll period";
  }
  EXPECT_EQ(b.reason(), StopReason::Deadline);
}

TEST(BudgetTest, ZeroLimitsMeanUnlimited) {
  Budget b(BudgetLimits{});  // all fields 0
  EXPECT_TRUE(b.limits().unlimited());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(b.chargeCombination());  // no deadline installed
  EXPECT_FALSE(b.exhausted());
}

TEST(BudgetTest, CancelObservedWithinOnePollPeriod) {
  CancelToken cancel;
  Budget b(BudgetLimits{}, &cancel);
  EXPECT_TRUE(b.chargeCut());
  cancel.requestCancel();
  // chargeCut amortizes its poll every 64 charges: the cancellation must be
  // observed within at most two poll periods of amortized charges.
  int survived = 0;
  while (b.chargeCut()) {
    ++survived;
    ASSERT_LE(survived, 128) << "cancellation never observed";
  }
  EXPECT_EQ(b.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, BatchedCutChargeIsAllOrNothing) {
  BudgetLimits limits;
  limits.maxCuts = 5;
  Budget b(limits);
  EXPECT_TRUE(b.chargeCuts(3));
  EXPECT_FALSE(b.chargeCuts(3));  // would pass maxCuts: none counted
  EXPECT_EQ(b.reason(), StopReason::CutLimit);
  EXPECT_EQ(b.progress().cutsVisited, 3u);
}

TEST(BudgetTest, BatchedCutChargePollsAtEachPeriodBoundary) {
  CancelToken cancel;
  Budget b(BudgetLimits{}, &cancel);
  EXPECT_TRUE(b.chargeCuts(Budget::kPollPeriod - 1));  // no boundary yet
  cancel.requestCancel();
  EXPECT_TRUE(b.chargeCuts(0));  // still short of the boundary
  // One more cut reaches the boundary, so this batch polls and sees it.
  EXPECT_FALSE(b.chargeCuts(2));
  EXPECT_EQ(b.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, CancelObservedImmediatelyByCombinationCharge) {
  CancelToken cancel;
  Budget b(BudgetLimits{}, &cancel);
  cancel.requestCancel();
  // Combinations are coarse units: polled on every charge, not amortized.
  EXPECT_FALSE(b.chargeCombination());
  EXPECT_EQ(b.reason(), StopReason::Cancelled);
}

// A charge that fails on a poll (cancel token or passed deadline) leaves
// the progress counters as they were, like a charge refused by a limit.
TEST(BudgetTest, FailedCombinationChargeIsNotCounted) {
  CancelToken cancel;
  cancel.requestCancel();
  Budget cancelled(BudgetLimits{}, &cancel);
  EXPECT_FALSE(cancelled.chargeCombination());
  EXPECT_EQ(cancelled.reason(), StopReason::Cancelled);
  EXPECT_EQ(cancelled.progress().combinationsTried, 0u);

  BudgetLimits limits;
  limits.deadlineMillis = 1;
  limits.maxCombinations = 10;
  Budget late(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(late.chargeCombination());
  EXPECT_EQ(late.reason(), StopReason::Deadline);
  EXPECT_EQ(late.progress().combinationsTried, 0u);
  EXPECT_EQ(late.remainingCombinations(), 10u);
}

TEST(BudgetTest, FailedCutBatchIsNotCounted) {
  CancelToken cancel;
  cancel.requestCancel();
  Budget cancelled(BudgetLimits{}, &cancel);
  EXPECT_FALSE(cancelled.chargeCuts(Budget::kPollPeriod));
  EXPECT_EQ(cancelled.reason(), StopReason::Cancelled);
  EXPECT_EQ(cancelled.progress().cutsVisited, 0u);

  BudgetLimits limits;
  limits.deadlineMillis = 1;
  Budget late(limits);
  EXPECT_TRUE(late.chargeCuts(3));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(late.chargeCuts(Budget::kPollPeriod));
  EXPECT_EQ(late.reason(), StopReason::Deadline);
  EXPECT_EQ(late.progress().cutsVisited, 3u);
}

TEST(BudgetTest, CanBoundExplorationReflectsStoppableLimits) {
  EXPECT_FALSE(Budget().canBoundExploration());

  BudgetLimits combosOnly;
  combosOnly.maxCombinations = 10;
  // A combinations-only budget cannot stop a lattice BFS (which charges
  // cuts): the degradation walk must not fall through to it.
  EXPECT_FALSE(Budget(combosOnly).canBoundExploration());

  BudgetLimits deadline;
  deadline.deadlineMillis = 100;
  EXPECT_TRUE(Budget(deadline).canBoundExploration());
  BudgetLimits cuts;
  cuts.maxCuts = 10;
  EXPECT_TRUE(Budget(cuts).canBoundExploration());
  BudgetLimits frontier;
  frontier.maxFrontierBytes = 1 << 20;
  EXPECT_TRUE(Budget(frontier).canBoundExploration());
  CancelToken cancel;
  EXPECT_TRUE(Budget(BudgetLimits{}, &cancel).canBoundExploration());
}

TEST(BudgetTest, StopReasonNames) {
  EXPECT_STREQ(toString(StopReason::None), "none");
  EXPECT_STREQ(toString(StopReason::Deadline), "deadline");
  EXPECT_STREQ(toString(StopReason::CutLimit), "cut-limit");
  EXPECT_STREQ(toString(StopReason::CombinationLimit), "combination-limit");
  EXPECT_STREQ(toString(StopReason::FrontierLimit), "frontier-limit");
  EXPECT_STREQ(toString(StopReason::Cancelled), "cancelled");
}

}  // namespace
}  // namespace gpd::control
