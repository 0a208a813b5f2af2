#include "graph/chains.h"

#include <gtest/gtest.h>

#include "graph/dag.h"
#include "util/rng.h"

namespace gpd::graph {
namespace {

// Maximum antichain size by exhaustive subset search (small posets).
int bruteMaxAntichain(int n, const std::function<bool(int, int)>& precedes) {
  int best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool antichain = true;
    for (int a = 0; a < n && antichain; ++a) {
      if (!(mask >> a & 1)) continue;
      for (int b = 0; b < n && antichain; ++b) {
        if (a != b && (mask >> b & 1) && (precedes(a, b) || precedes(b, a))) {
          antichain = false;
        }
      }
    }
    if (antichain) best = std::max(best, __builtin_popcount(mask));
  }
  return best;
}

std::function<bool(int, int)> oracle(const Reachability& r) {
  return [&r](int a, int b) { return r.reaches(a, b); };
}

// Row a lists every b ≠ a with precedes(a, b), one unit range each.
RangeRows unitRows(int n, const std::function<bool(int, int)>& precedes) {
  RangeRows rows;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && precedes(a, b)) rows.add(b, b + 1);
    }
    rows.endRow();
  }
  return rows;
}

std::vector<std::vector<int>> cover(
    int n, const std::function<bool(int, int)>& precedes) {
  return minimumChainCover(unitRows(n, precedes));
}

TEST(ChainCoverTest, EmptyPoset) {
  EXPECT_TRUE(cover(0, [](int, int) { return false; }).empty());
}

TEST(ChainCoverTest, TotalOrderIsOneChain) {
  const auto chains = cover(5, [](int a, int b) { return a < b; });
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChainCoverTest, AntichainNeedsOneChainEach) {
  const auto chains = cover(4, [](int, int) { return false; });
  EXPECT_EQ(chains.size(), 4u);
}

TEST(ChainCoverTest, CoverIsPartitionAndChainsValid) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.index(9));
    Dag g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.chance(0.3)) g.addEdge(u, v);
      }
    }
    const Reachability reach(g);
    const auto pre = oracle(reach);
    const auto chains = cover(n, pre);
    std::vector<int> covered(n, 0);
    for (const auto& chain : chains) {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        ++covered[chain[i]];
        if (i + 1 < chain.size()) {
          EXPECT_TRUE(pre(chain[i], chain[i + 1]))
              << "chain elements out of order, trial " << trial;
        }
      }
    }
    for (int c : covered) EXPECT_EQ(c, 1);
  }
}

TEST(ChainCoverTest, SizeEqualsMaxAntichainDilworth) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + static_cast<int>(rng.index(8));
    Dag g(n);
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (rng.chance(0.35)) g.addEdge(u, v);
      }
    }
    const Reachability reach(g);
    const auto pre = oracle(reach);
    const auto chains = cover(n, pre);
    EXPECT_EQ(static_cast<int>(chains.size()), bruteMaxAntichain(n, pre))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace gpd::graph
