#include "analysis/statistics.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "lattice/explore.h"

namespace gpd::analysis {
namespace {

TEST(StatisticsTest, IndependentProcessesAreMaximallyConcurrent) {
  ComputationBuilder b(3);
  for (ProcessId p = 0; p < 3; ++p) {
    b.appendEvent(p);
    b.appendEvent(p);
  }
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const ComputationStats stats = computeStats(vc);
  EXPECT_EQ(stats.processes, 3);
  EXPECT_EQ(stats.events, 9);
  EXPECT_EQ(stats.messages, 0);
  EXPECT_EQ(stats.height, 2);  // each process chain
  EXPECT_EQ(stats.width, 3);   // one event per process, pairwise concurrent
  EXPECT_EQ(stats.gridBound, 27.0);
  // Same-process pairs are ordered; cross-process pairs concurrent: of the
  // 15 pairs, 3·1 = 3 are same-process-ordered.
  EXPECT_DOUBLE_EQ(stats.concurrencyIndex, 12.0 / 15.0);
}

TEST(StatisticsTest, FullyChainedComputationHasWidthOne) {
  // p0 → p1 → p0 → p1 … alternating messages make one long chain.
  ComputationBuilder b(2);
  EventId prev = b.appendEvent(0);
  for (int i = 0; i < 3; ++i) {
    const EventId next = b.appendEvent(i % 2 == 0 ? 1 : 0);
    b.addMessage(prev, next);
    prev = next;
  }
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const ComputationStats stats = computeStats(vc);
  EXPECT_EQ(stats.width, 1);
  EXPECT_EQ(stats.height, 4);
  EXPECT_DOUBLE_EQ(stats.concurrencyIndex, 0.0);
}

TEST(StatisticsTest, MessagesReduceWidthAndConcurrency) {
  Rng rng(6);
  RandomComputationOptions sparse;
  sparse.processes = 4;
  sparse.eventsPerProcess = 6;
  sparse.messageProbability = 0.0;
  RandomComputationOptions dense = sparse;
  dense.messageProbability = 0.9;
  Rng rng2 = rng.fork();
  const Computation a = randomComputation(sparse, rng);
  const Computation b = randomComputation(dense, rng2);
  const ComputationStats sa = computeStats(VectorClocks(a));
  const ComputationStats sb = computeStats(VectorClocks(b));
  EXPECT_GE(sa.width, sb.width);
  EXPECT_GT(sa.concurrencyIndex, sb.concurrencyIndex);
  EXPECT_LE(sa.height, sb.height);
}

TEST(StatisticsTest, WidthBoundsLatticeLevelWidth) {
  // The widest lattice level cannot exceed the number of antichains of size
  // … simpler sanity: lattice max width ≥ 1 and the poset width bounds the
  // number of processes that can advance independently.
  Rng rng(7);
  RandomComputationOptions opt;
  opt.processes = 3;
  opt.eventsPerProcess = 4;
  opt.messageProbability = 0.4;
  const Computation c = randomComputation(opt, rng);
  const VectorClocks vc(c);
  const ComputationStats stats = computeStats(vc);
  EXPECT_GE(stats.width, 1);
  EXPECT_LE(stats.width, stats.events - stats.processes);
  EXPECT_GE(stats.height, opt.eventsPerProcess);  // each process is a chain
}

// The concurrency index counts comparable pairs from the successor rows;
// the pairwise concurrent() test over every pair is the oracle.
TEST(StatisticsTest, ConcurrencyIndexMatchesPairwiseCount) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RandomComputationOptions opt;
    opt.processes = 2 + static_cast<int>(rng.index(4));
    opt.eventsPerProcess = 1 + static_cast<int>(rng.index(8));
    opt.messageProbability = rng.uniform(0, 10) / 10.0;
    const Computation c = randomComputation(opt, rng);
    const VectorClocks vc(c);
    std::vector<EventId> events;
    for (ProcessId p = 0; p < c.processCount(); ++p) {
      for (int i = 1; i < c.eventCount(p); ++i) events.push_back({p, i});
    }
    std::uint64_t concurrent = 0;
    std::uint64_t pairs = 0;
    for (std::size_t a = 0; a < events.size(); ++a) {
      for (std::size_t b = a + 1; b < events.size(); ++b) {
        ++pairs;
        concurrent += vc.concurrent(events[a], events[b]);
      }
    }
    const double want =
        pairs == 0 ? 0.0 : static_cast<double>(concurrent) / pairs;
    EXPECT_EQ(computeStats(vc).concurrencyIndex, want) << "seed " << seed;
  }
}

TEST(StatisticsTest, EmptyComputation) {
  ComputationBuilder b(2);
  const Computation c = std::move(b).build();
  const VectorClocks vc(c);
  const ComputationStats stats = computeStats(vc);
  EXPECT_EQ(stats.width, 0);  // no non-initial events
  EXPECT_EQ(stats.height, 0);
  EXPECT_EQ(stats.concurrencyIndex, 0.0);
}

}  // namespace
}  // namespace gpd::analysis
