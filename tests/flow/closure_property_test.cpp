// The push-relabel max-flow against the Dinic it replaced, on the closure
// networks the sum detectors build.
//
// The oracle below is the vector-of-vectors Dinic from before the FIFO
// push-relabel kernel: one augmenting path per DFS from the source. Over
// 200 seeded random computations (process chains plus message edges) with
// tie-heavy event weights (mostly −1/0/+1, some ±2), both solvers must give
// the same flow value and the same residual source side, for the max and
// the min side of the sum. Ties make many optimal closures; the residual
// BFS of any maximum flow returns the minimal one, so the sides agree. On
// computations of at most 14 events, brute-force enumeration of the
// consistent cuts also checks that sumExtrema's argMax/argMin are the
// minimal optimal ideals (the componentwise minimum of all optimal cuts).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "clocks/vector_clock.h"
#include "computation/random.h"
#include "detect/sum.h"
#include "flow/closure.h"
#include "flow/maxflow.h"
#include "util/rng.h"

namespace gpd::flow {
namespace {

constexpr int kTrials = 200;
constexpr int kBruteForceEvents = 14;

// Dinic's algorithm exactly as src/flow/maxflow.cpp had it before the
// push-relabel kernel.
class ReferenceDinic {
 public:
  explicit ReferenceDinic(int n) : head_(n) {}

  void addEdge(int from, int to, std::int64_t capacity) {
    head_[from].push_back(static_cast<int>(edges_.size()));
    edges_.push_back({to, capacity});
    head_[to].push_back(static_cast<int>(edges_.size()));
    edges_.push_back({from, 0});
  }

  std::int64_t solve(int source, int sink) {
    source_ = source;
    sink_ = sink;
    std::int64_t total = 0;
    while (bfsLevels()) {
      iter_.assign(head_.size(), 0);
      while (true) {
        const std::int64_t pushed =
            dfsAugment(source_, std::numeric_limits<std::int64_t>::max());
        if (pushed == 0) break;
        total += pushed;
      }
    }
    return total;
  }

  std::vector<char> minCutSourceSide() const {
    std::vector<char> side(head_.size(), 0);
    std::queue<int> q;
    side[source_] = 1;
    q.push(source_);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int e : head_[u]) {
        if (edges_[e].cap > 0 && !side[edges_[e].to]) {
          side[edges_[e].to] = 1;
          q.push(edges_[e].to);
        }
      }
    }
    return side;
  }

 private:
  struct Edge {
    int to;
    std::int64_t cap;
  };

  bool bfsLevels() {
    level_.assign(head_.size(), -1);
    std::queue<int> q;
    level_[source_] = 0;
    q.push(source_);
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      for (int e : head_[u]) {
        if (edges_[e].cap > 0 && level_[edges_[e].to] < 0) {
          level_[edges_[e].to] = level_[u] + 1;
          q.push(edges_[e].to);
        }
      }
    }
    return level_[sink_] >= 0;
  }

  std::int64_t dfsAugment(int u, std::int64_t limit) {
    if (u == sink_) return limit;
    for (; iter_[u] < head_[u].size(); ++iter_[u]) {
      const int e = head_[u][iter_[u]];
      Edge& edge = edges_[e];
      if (edge.cap <= 0 || level_[edge.to] != level_[u] + 1) continue;
      const std::int64_t pushed =
          dfsAugment(edge.to, std::min(limit, edge.cap));
      if (pushed > 0) {
        edge.cap -= pushed;
        edges_[e ^ 1].cap += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<Edge> edges_;
  std::vector<std::vector<int>> head_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  int source_ = -1;
  int sink_ = -1;
};

struct Solved {
  std::int64_t flow;
  std::vector<char> side;
};

// The closure network of flow/closure.cpp, solved by `Solver`.
template <class Solver>
Solved solveClosureNetwork(const graph::Dag& g,
                           const std::vector<std::int64_t>& weight) {
  const int n = g.size();
  Solver mf(n + 2);
  std::int64_t positiveTotal = 0;
  for (int u = 0; u < n; ++u) {
    if (weight[u] > 0) {
      positiveTotal += weight[u];
      mf.addEdge(n, u, weight[u]);
    } else if (weight[u] < 0) {
      mf.addEdge(u, n + 1, -weight[u]);
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int v : g.successors(u)) mf.addEdge(u, v, positiveTotal + 1);
  }
  Solved out;
  out.flow = mf.solve(n, n + 1);
  out.side = mf.minCutSourceSide();
  return out;
}

std::int64_t tieHeavyDelta(Rng& rng) {
  const double r = rng.real();
  if (r < 0.3) return -1;
  if (r < 0.55) return 0;
  if (r < 0.85) return 1;
  return r < 0.925 ? -2 : 2;
}

struct Case {
  Computation comp;
  VariableTrace trace;

  Case(Computation c, Rng& rng) : comp(std::move(c)), trace(comp) {
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      std::vector<std::int64_t> values{rng.uniform(-3, 3)};
      for (int i = 1; i < comp.eventCount(p); ++i) {
        values.push_back(values.back() + tieHeavyDelta(rng));
      }
      trace.define(p, "x", values);
    }
  }
};

Computation randomCase(int trial, Rng& rng) {
  RandomComputationOptions opt;
  // Even trials are small enough to enumerate; odd ones are larger.
  const bool small = trial % 2 == 0;
  opt.processes = static_cast<int>(small ? rng.uniform(2, 3) : rng.uniform(3, 6));
  opt.eventsPerProcess =
      static_cast<int>(small ? rng.uniform(2, 4) : rng.uniform(4, 12));
  opt.messageProbability = 0.2 + 0.5 * rng.real();
  return randomComputation(opt, rng);
}

std::vector<SumTerm> allTerms(const Computation& comp) {
  std::vector<SumTerm> terms;
  for (ProcessId p = 0; p < comp.processCount(); ++p) terms.push_back({p, "x"});
  return terms;
}

// The minimal cut attaining the max (or min) of S, by enumeration: the
// componentwise minimum of every consistent cut attaining it.
struct BruteSide {
  std::int64_t sum;
  Cut arg;
};

BruteSide bruteForceSide(const VectorClocks& clocks, const VariableTrace& trace,
                         bool maximize) {
  const Computation& comp = clocks.computation();
  const SumPredicate sum{allTerms(comp), Relop::Equal, 0};
  std::vector<Cut> optimal;
  std::int64_t best = 0;
  Cut cut = initialCut(comp);
  while (true) {
    if (clocks.isConsistent(cut)) {
      const std::int64_t s = sum.sumAtCut(trace, cut);
      const bool better = maximize ? s > best : s < best;
      if (optimal.empty() || better) {
        best = s;
        optimal.clear();
      }
      if (s == best) optimal.push_back(cut);
    }
    ProcessId p = 0;
    while (p < comp.processCount() && ++cut.last[p] == comp.eventCount(p)) {
      cut.last[p++] = 0;
    }
    if (p == comp.processCount()) break;
  }
  Cut meet = optimal.front();
  for (const Cut& c : optimal) {
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      meet.last[p] = std::min(meet.last[p], c.last[p]);
    }
  }
  return {best, meet};
}

TEST(ClosurePropertyTest, PushRelabelMatchesReferenceDinicOnTies) {
  int enumerated = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(7000 + static_cast<std::uint64_t>(trial));
    const Case c(randomCase(trial, rng), rng);
    const detect::EventOrder order(c.comp);
    const SumDeltas deltas = sumDeltas(c.trace, allTerms(c.comp));
    for (const int sign : {1, -1}) {
      std::vector<std::int64_t> weight = deltas.perNode;
      for (std::int64_t& w : weight) w *= sign;
      const Solved ref =
          solveClosureNetwork<ReferenceDinic>(order.reversed, weight);
      const Solved got = solveClosureNetwork<MaxFlow>(order.reversed, weight);
      ASSERT_EQ(got.flow, ref.flow) << "trial " << trial << " sign " << sign;
      ASSERT_EQ(got.side, ref.side) << "trial " << trial << " sign " << sign;

      const ClosureResult closure = maxWeightClosure(order.reversed, weight);
      const std::vector<char> refClosure(ref.side.begin(),
                                         ref.side.end() - 2);
      EXPECT_EQ(closure.inClosure, refClosure) << "trial " << trial;
    }

    if (c.comp.totalEvents() - c.comp.processCount() > kBruteForceEvents) {
      continue;
    }
    ++enumerated;
    const VectorClocks clocks(c.comp);
    const detect::SumExtrema ext =
        detect::sumExtrema(clocks, c.trace, allTerms(c.comp));
    const BruteSide max = bruteForceSide(clocks, c.trace, true);
    const BruteSide min = bruteForceSide(clocks, c.trace, false);
    EXPECT_EQ(ext.maxSum, max.sum) << "trial " << trial;
    EXPECT_EQ(ext.minSum, min.sum) << "trial " << trial;
    EXPECT_EQ(ext.argMax, max.arg) << "trial " << trial;
    EXPECT_EQ(ext.argMin, min.arg) << "trial " << trial;
  }
  EXPECT_GE(enumerated, kTrials / 2);
}

}  // namespace
}  // namespace gpd::flow
