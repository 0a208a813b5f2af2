#include "flow/closure.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace gpd::flow {
namespace {

// Exhaustive best closure for cross-validation.
std::int64_t bruteBestClosure(int n, const std::vector<Arc>& arcs,
                              const std::vector<std::int64_t>& w) {
  std::int64_t best = 0;  // empty closure
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool closed = true;
    for (const Arc& a : arcs) {
      if ((mask >> a.from & 1) && !(mask >> a.to & 1)) closed = false;
    }
    if (!closed) continue;
    std::int64_t total = 0;
    for (int u = 0; u < n; ++u) {
      if (mask >> u & 1) total += w[u];
    }
    best = std::max(best, total);
  }
  return best;
}

bool isClosure(const std::vector<Arc>& arcs, const std::vector<char>& in) {
  for (const Arc& a : arcs) {
    if (in[a.from] && !in[a.to]) return false;
  }
  return true;
}

TEST(ClosureTest, AllPositiveTakesEverything) {
  const auto res = maxWeightClosure(3, {{0, 1}}, {1, 2, 3});
  EXPECT_EQ(res.weight, 6);
  for (char c : res.inClosure) EXPECT_TRUE(c);
}

TEST(ClosureTest, AllNegativeTakesNothing) {
  const auto res = maxWeightClosure(3, {{0, 1}}, {-1, -2, -3});
  EXPECT_EQ(res.weight, 0);
  for (char c : res.inClosure) EXPECT_FALSE(c);
}

TEST(ClosureTest, ProjectSelectionTradeoff) {
  // Taking node 0 (+5) forces node 1 (−3): worth it. Node 2 (−10) stays out.
  const auto res = maxWeightClosure(3, {{0, 1}}, {5, -3, -10});
  EXPECT_EQ(res.weight, 2);
  EXPECT_TRUE(res.inClosure[0]);
  EXPECT_TRUE(res.inClosure[1]);
  EXPECT_FALSE(res.inClosure[2]);
}

TEST(ClosureTest, UnprofitableDependencyDropsProject) {
  const auto res = maxWeightClosure(2, {{0, 1}}, {5, -8});
  EXPECT_EQ(res.weight, 0);
  EXPECT_FALSE(res.inClosure[0]);
}

TEST(ClosureTest, WeightsBeyondInt64AreRejected) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(maxWeightClosure(2, {}, {max, 1}), CheckFailure);
  // The "infinite" capacity must still exceed the positive total.
  EXPECT_THROW(maxWeightClosure(2, {}, {max, 0}), CheckFailure);
  EXPECT_THROW(
      maxWeightClosure(2, {}, {std::numeric_limits<std::int64_t>::min(), 0}),
      CheckFailure);
  EXPECT_EQ(maxWeightClosure(2, {}, {max - 1, -1}).weight, max - 1);
}

TEST(ClosureTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(555);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 3 + static_cast<int>(rng.index(8));  // 3..10 nodes
    std::vector<Arc> arcs;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.chance(0.3)) arcs.push_back({u, v});
      }
    }
    std::vector<std::int64_t> w(n);
    for (auto& x : w) x = rng.uniform(-10, 10);
    const auto res = maxWeightClosure(n, arcs, w);
    EXPECT_EQ(res.weight, bruteBestClosure(n, arcs, w)) << "trial " << trial;
    EXPECT_TRUE(isClosure(arcs, res.inClosure));
    std::int64_t chosen = 0;
    for (int u = 0; u < n; ++u) {
      if (res.inClosure[u]) chosen += w[u];
    }
    EXPECT_EQ(chosen, res.weight);
  }
}

}  // namespace
}  // namespace gpd::flow
