#include "flow/closure.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/check.h"
#include "util/rng.h"

namespace gpd::flow {
namespace {

// Exhaustive best closure for cross-validation.
std::int64_t bruteBestClosure(const graph::Dag& g,
                              const std::vector<std::int64_t>& w) {
  const int n = g.size();
  std::int64_t best = 0;  // empty closure
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool closed = true;
    for (int u = 0; u < n && closed; ++u) {
      if (!(mask >> u & 1)) continue;
      for (int v : g.successors(u)) {
        if (!(mask >> v & 1)) {
          closed = false;
          break;
        }
      }
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

bool isClosure(const graph::Dag& g, const std::vector<char>& in) {
  for (int u = 0; u < g.size(); ++u) {
    if (!in[u]) continue;
    for (int v : g.successors(u)) {
      if (!in[v]) return false;
    }
  }
  return true;
}

TEST(ClosureTest, AllPositiveTakesEverything) {
  graph::Dag g(3);
  g.addEdge(0, 1);
  const auto res = maxWeightClosure(g, {1, 2, 3});
  EXPECT_EQ(res.weight, 6);
  for (char c : res.inClosure) EXPECT_TRUE(c);
}

TEST(ClosureTest, AllNegativeTakesNothing) {
  graph::Dag g(3);
  g.addEdge(0, 1);
  const auto res = maxWeightClosure(g, {-1, -2, -3});
  EXPECT_EQ(res.weight, 0);
  for (char c : res.inClosure) EXPECT_FALSE(c);
}

TEST(ClosureTest, ProjectSelectionTradeoff) {
  // Taking node 0 (+5) forces node 1 (−3): worth it. Node 2 (−10) stays out.
  graph::Dag g(3);
  g.addEdge(0, 1);
  const auto res = maxWeightClosure(g, {5, -3, -10});
  EXPECT_EQ(res.weight, 2);
  EXPECT_TRUE(res.inClosure[0]);
  EXPECT_TRUE(res.inClosure[1]);
  EXPECT_FALSE(res.inClosure[2]);
}

TEST(ClosureTest, UnprofitableDependencyDropsProject) {
  graph::Dag g(2);
  g.addEdge(0, 1);
  const auto res = maxWeightClosure(g, {5, -8});
  EXPECT_EQ(res.weight, 0);
  EXPECT_FALSE(res.inClosure[0]);
}

TEST(ClosureTest, WeightsBeyondInt64AreRejected) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const graph::Dag g(2);
  EXPECT_THROW(maxWeightClosure(g, {max, 1}), CheckFailure);
  // The "infinite" capacity must still exceed the positive total.
  EXPECT_THROW(maxWeightClosure(g, {max, 0}), CheckFailure);
  EXPECT_THROW(
      maxWeightClosure(g, {std::numeric_limits<std::int64_t>::min(), 0}),
      CheckFailure);
  EXPECT_EQ(maxWeightClosure(g, {max - 1, -1}).weight, max - 1);
}

TEST(ClosureTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(555);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 3 + static_cast<int>(rng.index(8));  // 3..10 nodes
    graph::Dag g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.chance(0.3)) g.addEdge(u, v);
      }
    }
    std::vector<std::int64_t> w(n);
    for (auto& x : w) x = rng.uniform(-10, 10);
    const auto res = maxWeightClosure(g, w);
    EXPECT_EQ(res.weight, bruteBestClosure(g, w)) << "trial " << trial;
    EXPECT_TRUE(isClosure(g, res.inClosure));
    std::int64_t chosen = 0;
    for (int u = 0; u < n; ++u) {
      if (res.inClosure[u]) chosen += w[u];
    }
    EXPECT_EQ(chosen, res.weight);
  }
}

}  // namespace
}  // namespace gpd::flow
