#include "graph/dag.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace gpd::graph {
namespace {

// Brute-force reachability by DFS, for cross-validation.
bool dfsReaches(const Dag& g, int u, int v) {
  std::vector<char> seen(g.size(), 0);
  std::vector<int> stack{u};
  while (!stack.empty()) {
    const int x = stack.back();
    stack.pop_back();
    for (int y : g.successors(x)) {
      if (y == v) return true;
      if (!seen[y]) {
        seen[y] = 1;
        stack.push_back(y);
      }
    }
  }
  return false;
}

Dag randomDag(int n, double density, Rng& rng) {
  Dag g(n);
  // Edges only from lower to higher index: acyclic by construction.
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.chance(density)) g.addEdge(u, v);
    }
  }
  return g;
}

TEST(DagTest, AddNodeGrows) {
  Dag g;
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.addNode(), 0);
  EXPECT_EQ(g.addNode(), 1);
  EXPECT_EQ(g.size(), 2);
}

TEST(DagTest, RejectsSelfLoop) {
  Dag g(2);
  EXPECT_THROW(g.addEdge(0, 0), CheckFailure);
}

TEST(DagTest, RejectsOutOfRange) {
  Dag g(2);
  EXPECT_THROW(g.addEdge(0, 5), CheckFailure);
}

TEST(DagTest, TopologicalOrderRespectsEdges) {
  Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    const Dag g = randomDag(12, 0.3, rng);
    const auto order = g.topologicalOrder();
    ASSERT_TRUE(order.has_value());
    std::vector<int> pos(g.size());
    for (int i = 0; i < g.size(); ++i) pos[(*order)[i]] = i;
    for (int u = 0; u < g.size(); ++u) {
      for (int v : g.successors(u)) EXPECT_LT(pos[u], pos[v]);
    }
  }
}

TEST(DagTest, CycleDetected) {
  Dag g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 0);
  EXPECT_FALSE(g.topologicalOrder().has_value());
  EXPECT_FALSE(g.isAcyclic());
}

TEST(ReachabilityTest, MatchesDfsOnRandomDags) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    const Dag g = randomDag(20, 0.15, rng);
    const Reachability reach(g);
    for (int u = 0; u < g.size(); ++u) {
      for (int v = 0; v < g.size(); ++v) {
        EXPECT_EQ(reach.reaches(u, v), dfsReaches(g, u, v))
            << "u=" << u << " v=" << v << " trial=" << trial;
      }
    }
  }
}

TEST(ReachabilityTest, StrictOrderIsIrreflexive) {
  Dag g(4);
  g.addEdge(0, 1);
  const Reachability reach(g);
  for (int u = 0; u < 4; ++u) EXPECT_FALSE(reach.reaches(u, u));
}

TEST(ReachabilityTest, ConcurrentMeansIncomparable) {
  Dag g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  const Reachability reach(g);
  EXPECT_TRUE(reach.concurrent(1, 2));
  EXPECT_FALSE(reach.concurrent(0, 1));
  EXPECT_FALSE(reach.concurrent(1, 1));
}

TEST(ReachabilityTest, RejectsCyclicGraph) {
  Dag g(2);
  g.addEdge(0, 1);
  g.addEdge(1, 0);
  EXPECT_THROW(Reachability{g}, CheckFailure);
}

TEST(ReachabilityTest, HandlesLargeNodeCounts) {
  // Crosses the 64-bit word boundary of the bitset rows.
  const int n = 200;
  Dag g(n);
  for (int i = 0; i + 1 < n; ++i) g.addEdge(i, i + 1);
  const Reachability reach(g);
  EXPECT_TRUE(reach.reaches(0, n - 1));
  EXPECT_FALSE(reach.reaches(n - 1, 0));
  EXPECT_TRUE(reach.reaches(63, 64));
  EXPECT_TRUE(reach.reaches(127, 128));
}

TEST(TransitiveReductionTest, RemovesImpliedEdges) {
  Dag g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 2);  // implied
  const Dag r = transitiveReduction(g);
  EXPECT_EQ(r.edgeCount(), 2);
  EXPECT_EQ(r.successors(0), std::vector<int>{1});
}

TEST(TransitiveReductionTest, PreservesReachability) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Dag g = randomDag(15, 0.4, rng);
    const Dag r = transitiveReduction(g);
    const Reachability a(g);
    const Reachability b(r);
    for (int u = 0; u < g.size(); ++u) {
      for (int v = 0; v < g.size(); ++v) {
        EXPECT_EQ(a.reaches(u, v), b.reaches(u, v));
      }
    }
    EXPECT_LE(r.edgeCount(), g.edgeCount());
  }
}

TEST(TransitiveReductionTest, DeduplicatesParallelEdges) {
  Dag g(2);
  g.addEdge(0, 1);
  g.addEdge(0, 1);
  const Dag r = transitiveReduction(g);
  EXPECT_EQ(r.edgeCount(), 1);
}

}  // namespace
}  // namespace gpd::graph
