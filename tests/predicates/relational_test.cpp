#include "predicates/relational.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"

namespace gpd {
namespace {

Computation twoProc() {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(0);
  b.appendEvent(1);
  return std::move(b).build();
}

TEST(SumPredicateTest, SumAtCut) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "x", {1, 2, 3});
  t.define(1, "y", {10, 20});
  SumPredicate pred{{{0, "x"}, {1, "y"}}, Relop::Equal, 22};
  EXPECT_EQ(pred.sumAtCut(t, Cut(std::vector<int>{0, 0})), 11);
  EXPECT_EQ(pred.sumAtCut(t, Cut(std::vector<int>{1, 1})), 22);
  EXPECT_TRUE(pred.holdsAtCut(t, Cut(std::vector<int>{1, 1})));
  EXPECT_FALSE(pred.holdsAtCut(t, Cut(std::vector<int>{0, 1})));
}

TEST(SumPredicateTest, DeltaBounds) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "x", {0, 1, 0});
  t.define(0, "x2", {0, 1, 2});
  t.define(1, "y", {0, 5});
  SumPredicate small{{{0, "x"}}, Relop::Equal, 0};
  EXPECT_EQ(small.deltaBound(t), 1);
  EXPECT_EQ(small.eventDeltaBound(t), 1);

  SumPredicate big{{{0, "x"}, {1, "y"}}, Relop::Equal, 0};
  EXPECT_EQ(big.deltaBound(t), 5);

  // Two bounded variables on one process accumulate at the event level.
  SumPredicate stacked{{{0, "x"}, {0, "x2"}}, Relop::Equal, 0};
  EXPECT_EQ(stacked.deltaBound(t), 1);
  EXPECT_EQ(stacked.eventDeltaBound(t), 2);
}

TEST(SumPredicateTest, SumDeltasAccumulatePerEvent) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "x", {4, 6, 3});
  t.define(0, "x2", {1, 2, 3});
  t.define(1, "y", {-2, 5});
  const SumDeltas d = sumDeltas(t, {{0, "x"}, {0, "x2"}, {1, "y"}});
  EXPECT_EQ(d.base, 3);
  EXPECT_EQ(d.perNode[c.node({0, 0})], 0);
  EXPECT_EQ(d.perNode[c.node({0, 1})], 3);
  EXPECT_EQ(d.perNode[c.node({0, 2})], -2);
  EXPECT_EQ(d.perNode[c.node({1, 1})], 7);
  EXPECT_EQ(d.maxAbs, 7);
}

// Trace values span the full int64 range; the sum arithmetic must reject
// what it cannot represent instead of overflowing.
TEST(SumPredicateTest, SumDeltasRejectAStepThatOverflows) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "x", {0, std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::int64_t>::min()});
  t.define(1, "x", {0, 0});
  const SumPredicate pred{{{0, "x"}, {1, "x"}}, Relop::GreaterEq, 3};
  EXPECT_THROW(sumDeltas(t, pred.terms), InputError);
  EXPECT_THROW(pred.eventDeltaBound(t), InputError);
}

TEST(SumPredicateTest, SumDeltasRejectTotalsBeyondInt64) {
  const Computation c = twoProc();
  VariableTrace t(c);
  // Each step fits, but the two together exceed INT64_MAX.
  t.define(0, "x", {0, 6'000'000'000'000'000'000, 6'000'000'000'000'000'000});
  t.define(1, "x", {0, 6'000'000'000'000'000'000});
  EXPECT_THROW(sumDeltas(t, {{0, "x"}, {1, "x"}}), InputError);
  // One of them alone is fine.
  EXPECT_EQ(sumDeltas(t, {{0, "x"}}).maxAbs, 6'000'000'000'000'000'000);
}

TEST(SumPredicateTest, SumDeltasAcceptTheLargestRepresentableRange) {
  const Computation c = twoProc();
  VariableTrace t(c);
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  // |S(⊥)| + Σ|Δ| + 1 = INT64_MAX exactly.
  t.define(0, "x", {-1, max - 3, max - 3});
  t.define(1, "x", {0, 0});
  EXPECT_EQ(sumDeltas(t, {{0, "x"}, {1, "x"}}).maxAbs, max - 2);
  // One more unit of |S(⊥)| does not fit.
  t.define(0, "y", {-2, max - 3, max - 3});
  EXPECT_THROW(sumDeltas(t, {{0, "y"}, {1, "x"}}), InputError);
}

TEST(SumPredicateTest, ToStringReadable) {
  SumPredicate pred{{{0, "x"}, {2, "y"}}, Relop::GreaterEq, 3};
  EXPECT_EQ(pred.toString(), "x@p0 + y@p2 >= 3");
}

TEST(SumPredicateTest, MultipleTermsSameProcess) {
  const Computation c = twoProc();
  VariableTrace t(c);
  t.define(0, "a", {1, 1, 1});
  t.define(0, "b", {2, 2, 2});
  SumPredicate pred{{{0, "a"}, {0, "b"}}, Relop::Equal, 3};
  EXPECT_EQ(pred.sumAtCut(t, Cut(std::vector<int>{2, 0})), 3);
}

}  // namespace
}  // namespace gpd
