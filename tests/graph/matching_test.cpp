#include "graph/matching.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace gpd::graph {
namespace {

// Exhaustive maximum matching for cross-validation (small graphs only).
int bruteMaxMatching(int nLeft, int nRight,
                     const std::vector<std::vector<int>>& adj) {
  std::vector<char> usedRight(nRight, 0);
  std::function<int(int)> go = [&](int l) -> int {
    if (l == nLeft) return 0;
    int best = go(l + 1);  // leave l unmatched
    for (int r : adj[l]) {
      if (!usedRight[r]) {
        usedRight[r] = 1;
        best = std::max(best, 1 + go(l + 1));
        usedRight[r] = 0;
      }
    }
    return best;
  };
  return go(0);
}

// The lists as rows of unit ranges, in list order.
RangeRows unitRows(const std::vector<std::vector<int>>& adj) {
  RangeRows rows;
  for (const auto& row : adj) {
    for (int r : row) rows.add(r, r + 1);
    rows.endRow();
  }
  return rows;
}

TEST(MatchingTest, EmptyGraph) {
  const auto m = maximumBipartiteMatching(RangeRows{}, 0);
  EXPECT_EQ(m.size, 0);
}

TEST(MatchingTest, PerfectMatchingOnIdentity) {
  std::vector<std::vector<int>> adj{{0}, {1}, {2}};
  const auto m = maximumBipartiteMatching(unitRows(adj), 3);
  EXPECT_EQ(m.size, 3);
  for (int l = 0; l < 3; ++l) EXPECT_EQ(m.pairLeft[l], l);
}

TEST(MatchingTest, StarGraphMatchesOne) {
  // All left nodes want right node 0.
  std::vector<std::vector<int>> adj{{0}, {0}, {0}};
  const auto m = maximumBipartiteMatching(unitRows(adj), 1);
  EXPECT_EQ(m.size, 1);
}

TEST(MatchingTest, MatchingIsConsistent) {
  Rng rng(5);
  std::vector<std::vector<int>> adj(6);
  for (int l = 0; l < 6; ++l) {
    for (int r = 0; r < 6; ++r) {
      if (rng.chance(0.4)) adj[l].push_back(r);
    }
  }
  const auto m = maximumBipartiteMatching(unitRows(adj), 6);
  for (int l = 0; l < 6; ++l) {
    if (m.pairLeft[l] >= 0) { EXPECT_EQ(m.pairRight[m.pairLeft[l]], l); }
  }
  for (int r = 0; r < 6; ++r) {
    if (m.pairRight[r] >= 0) { EXPECT_EQ(m.pairLeft[m.pairRight[r]], r); }
  }
}

TEST(MatchingTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int nL = 1 + static_cast<int>(rng.index(6));
    const int nR = 1 + static_cast<int>(rng.index(6));
    std::vector<std::vector<int>> adj(nL);
    for (int l = 0; l < nL; ++l) {
      for (int r = 0; r < nR; ++r) {
        if (rng.chance(0.35)) adj[l].push_back(r);
      }
    }
    const auto m = maximumBipartiteMatching(unitRows(adj), nR);
    EXPECT_EQ(m.size, bruteMaxMatching(nL, nR, adj)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gpd::graph
