// The closure solves behind the sum detectors, against two oracles.
//
// 1. The push-relabel max-flow against the Dinic it replaced, on the
//    uncontracted closure networks (one node per event). The oracle below
//    is the vector-of-vectors Dinic from before the FIFO push-relabel
//    kernel: one augmenting path per DFS from the source. Over 200 seeded
//    random computations (process chains plus message edges; sends,
//    receives and send-receive events placed at random) with tie-heavy
//    event weights (mostly −1/0/+1, some ±2), both solvers must give the
//    same flow value and the same residual source side, for the max and the
//    min side of the sum. Ties make many optimal closures; the residual BFS
//    of any maximum flow returns the minimal one, so the sides agree.
//    On computations of at most 14 events, brute-force enumeration of the
//    consistent cuts also checks that sumExtrema's argMax/argMin are the
//    minimal optimal ideals (the componentwise minimum of all optimal cuts).
// 2. The contracted solve (detect::SumRange, which merges each process's
//    events into runs first) against that uncontracted solve: the same sum
//    and the same arg cut on both sides, over the same 200 cases and on
//    targeted contraction shapes.
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
#include "graph/dag.h"
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

// The uncontracted closure network: one node per event, and an arc from
// each event to every event it directly requires (the reversed
// happened-before edges), so closures are the down-closed event sets.
std::vector<Arc> eventArcs(const Computation& comp) {
  const graph::Dag dag = comp.toDagWithoutInitialEdges();
  std::vector<Arc> arcs;
  for (int u = 0; u < dag.size(); ++u) {
    for (int v : dag.successors(u)) arcs.push_back({v, u});
  }
  return arcs;
}

// The closure network of flow/closure.cpp, solved by `Solver`.
template <class Solver>
Solved solveClosureNetwork(int n, const std::vector<Arc>& arcs,
                           const std::vector<std::int64_t>& weight) {
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
  for (const Arc& a : arcs) mf.addEdge(a.from, a.to, positiveTotal + 1);
  Solved out;
  out.flow = mf.solve(n, n + 1);
  out.side = mf.minCutSourceSide();
  return out;
}

// One side of S's range by the uncontracted solve: maxWeightClosure on the
// full event network, read back as the longest in-closure prefix of each
// process.
detect::SumExtremum uncontractedSide(const Computation& comp,
                                     const SumDeltas& deltas, bool maximize) {
  std::vector<std::int64_t> weight = deltas.perNode;
  if (!maximize) {
    for (std::int64_t& w : weight) w = -w;
  }
  const ClosureResult res =
      maxWeightClosure(comp.totalEvents(), eventArcs(comp), weight);
  Cut cut = initialCut(comp);
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    while (cut.last[p] + 1 < comp.eventCount(p) &&
           res.inClosure[comp.node({p, cut.last[p] + 1})]) {
      ++cut.last[p];
    }
  }
  return {maximize ? deltas.base + res.weight : deltas.base - res.weight,
          cut};
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
    const int n = c.comp.totalEvents();
    const std::vector<Arc> arcs = eventArcs(c.comp);
    const SumDeltas deltas = sumDeltas(c.trace, allTerms(c.comp));
    for (const int sign : {1, -1}) {
      std::vector<std::int64_t> weight = deltas.perNode;
      for (std::int64_t& w : weight) w *= sign;
      const Solved ref = solveClosureNetwork<ReferenceDinic>(n, arcs, weight);
      const Solved got = solveClosureNetwork<MaxFlow>(n, arcs, weight);
      ASSERT_EQ(got.flow, ref.flow) << "trial " << trial << " sign " << sign;
      ASSERT_EQ(got.side, ref.side) << "trial " << trial << " sign " << sign;

      const ClosureResult closure = maxWeightClosure(n, arcs, weight);
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

TEST(ClosurePropertyTest, ContractedSolveMatchesUncontractedOnTies) {
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(7000 + static_cast<std::uint64_t>(trial));
    const Case c(randomCase(trial, rng), rng);
    const SumDeltas deltas = sumDeltas(c.trace, allTerms(c.comp));
    detect::SumRange range(c.comp, c.trace, allTerms(c.comp));
    const detect::SumExtremum max = uncontractedSide(c.comp, deltas, true);
    const detect::SumExtremum min = uncontractedSide(c.comp, deltas, false);
    EXPECT_EQ(range.max().sum, max.sum) << "trial " << trial;
    EXPECT_EQ(range.max().arg, max.arg) << "trial " << trial;
    EXPECT_EQ(range.min().sum, min.sum) << "trial " << trial;
    EXPECT_EQ(range.min().arg, min.arg) << "trial " << trial;
  }
}

// Targeted contraction shapes. Each builds one computation with per-event
// deltas on x, then checks both sides of S against the expected cut and the
// uncontracted solve.
struct Shape {
  Computation comp;
  VariableTrace trace;

  // deltas[p] lists Δ(x) for p's non-initial events; x starts at 0.
  Shape(Computation c, const std::vector<std::vector<std::int64_t>>& deltas)
      : comp(std::move(c)), trace(comp) {
    for (ProcessId p = 0; p < comp.processCount(); ++p) {
      std::vector<std::int64_t> values{0};
      for (std::int64_t d : deltas[p]) values.push_back(values.back() + d);
      trace.define(p, "x", values);
    }
  }

  void expectSides(std::int64_t maxSum, const std::vector<int>& argMax,
                   std::int64_t minSum, const std::vector<int>& argMin) const {
    detect::SumRange range(comp, trace, allTerms(comp));
    EXPECT_EQ(range.max().sum, maxSum);
    EXPECT_EQ(range.max().arg, Cut(argMax));
    EXPECT_EQ(range.min().sum, minSum);
    EXPECT_EQ(range.min().arg, Cut(argMin));
    const SumDeltas deltas = sumDeltas(trace, allTerms(comp));
    const detect::SumExtremum max = uncontractedSide(comp, deltas, true);
    const detect::SumExtremum min = uncontractedSide(comp, deltas, false);
    EXPECT_EQ(range.max().sum, max.sum);
    EXPECT_EQ(range.max().arg, max.arg);
    EXPECT_EQ(range.min().sum, min.sum);
    EXPECT_EQ(range.min().arg, min.arg);
  }
};

// Two processes with the given numbers of non-initial events and no message.
Computation twoChains(int p0Events, int p1Events) {
  ComputationBuilder b(2);
  for (int i = 0; i < p0Events; ++i) b.appendEvent(0);
  for (int i = 0; i < p1Events; ++i) b.appendEvent(1);
  return std::move(b).build();
}

TEST(SumContractionTest, AllPositiveMessageFreeProcessIsFixedIn) {
  // Max side: p0 is fixed in whole. Min side: it is dropped whole.
  const Shape s(twoChains(3, 2), {{1, 2, 1}, {-1, 1}});
  s.expectSides(4, {3, 0}, -1, {0, 1});
}

TEST(SumContractionTest, NonPositiveSendFreeSuffixIsDropped) {
  // Max side: e1 is fixed in, then e2 (−1) and e3 (0) form a dropped
  // suffix.
  const Shape s(twoChains(3, 1), {{2, -1, 0}, {0}});
  s.expectSides(2, {1, 0}, 0, {0, 0});
}

TEST(SumContractionTest, AllZeroWeightsMakeBottomTheWitness) {
  ComputationBuilder b(3);
  const EventId e1 = b.appendEvent(0);
  b.appendEvent(0);
  const EventId f1 = b.appendEvent(1);
  const EventId f2 = b.appendEvent(1);
  const EventId g1 = b.appendEvent(2);
  b.addMessage(e1, f2);
  b.addMessage(f1, g1);
  const Shape s(std::move(b).build(), {{0, 0}, {0, 0}, {0}});
  s.expectSides(0, {0, 0, 0}, 0, {0, 0, 0});
}

TEST(SumContractionTest, ReceiveInsidePositiveRun) {
  // p0: e1 (−1) sends to p1's f2. p1: f1 (+1) is fixed in; f2 (+1, the
  // receive) and f3 (+1) form one run that requires e1.
  ComputationBuilder b(2);
  const EventId e1 = b.appendEvent(0);
  b.appendEvent(1);
  const EventId f2 = b.appendEvent(1);
  b.appendEvent(1);
  b.addMessage(e1, f2);
  const Shape s(std::move(b).build(), {{-1}, {1, 1, 1}});
  s.expectSides(2, {1, 3}, -1, {1, 0});
}

TEST(SumContractionTest, SendInsideNonPositiveRun) {
  // p0: e1 (0) and e2 (−1, sends to f1) form one run; e3 (0) is dropped.
  // p1: f1 (+3) requires that run.
  ComputationBuilder b(2);
  b.appendEvent(0);
  const EventId e2 = b.appendEvent(0);
  b.appendEvent(0);
  const EventId f1 = b.appendEvent(1);
  b.addMessage(e2, f1);
  const Shape s(std::move(b).build(), {{0, -1, 0}, {3}});
  s.expectSides(2, {2, 1}, -1, {2, 0});
}

}  // namespace
}  // namespace gpd::flow
