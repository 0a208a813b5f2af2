#include "clocks/chain_cover.h"

#include <gtest/gtest.h>

#include "computation/random.h"
#include "graph/chains.h"
#include "util/check.h"

namespace gpd {
namespace {

// The cover from the pairwise oracle: row a holds one unit range per b ≠ a
// with leq(events[a], events[b]), filled by the n² loop.
std::vector<std::vector<EventId>> pairwiseCover(
    const VectorClocks& clocks, const std::vector<EventId>& events) {
  const int n = static_cast<int>(events.size());
  graph::RangeRows rows;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && clocks.leq(events[a], events[b])) rows.add(b, b + 1);
    }
    rows.endRow();
  }
  std::vector<std::vector<EventId>> cover;
  for (const std::vector<int>& chain : graph::minimumChainCover(rows)) {
    std::vector<EventId>& out = cover.emplace_back();
    for (int idx : chain) out.push_back(events[idx]);
  }
  return cover;
}

// A random process-grouped subset: the processes in random order, each
// contributing a random ascending subset of its events (initial events
// included). Some subsets keep one process only, some are empty.
std::vector<EventId> randomGroupedSubset(const Computation& c, Rng& rng) {
  std::vector<ProcessId> order;
  for (ProcessId p = 0; p < c.processCount(); ++p) order.push_back(p);
  rng.shuffle(order);
  const int shape = static_cast<int>(rng.index(6));
  if (shape == 0) return {};
  if (shape == 1) order.resize(1);
  const double keep = shape == 2 ? 1.0 : 0.2 + 0.6 * rng.real();
  std::vector<EventId> events;
  for (ProcessId p : order) {
    for (int i = 0; i < c.eventCount(p); ++i) {
      if (rng.chance(keep)) events.push_back({p, i});
    }
  }
  return events;
}

TEST(ChainCoverPropertyTest, ClockRowsMatchPairwiseCover) {
  int nonTrivial = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RandomComputationOptions opt;
    opt.processes = 1 + static_cast<int>(rng.index(5));
    opt.eventsPerProcess = static_cast<int>(rng.index(9));
    opt.messageProbability = rng.real();
    const Computation c = randomComputation(opt, rng);
    const VectorClocks clocks(c);
    for (int subset = 0; subset < 4; ++subset) {
      const std::vector<EventId> events = randomGroupedSubset(c, rng);
      const auto got = chainCover(clocks, events);
      EXPECT_EQ(got, pairwiseCover(clocks, events))
          << "seed " << seed << " subset " << subset;
      nonTrivial += got.size() > 1 && got.size() < events.size();
    }
  }
  EXPECT_GT(nonTrivial, 100);  // most covers both merge and split events
}

TEST(ChainCoverTest, RejectsUngroupedOrDescendingEvents) {
  ComputationBuilder b(2);
  b.appendEvent(0);
  b.appendEvent(1);
  const Computation c = std::move(b).build();
  const VectorClocks clocks(c);
  EXPECT_THROW(chainCover(clocks, {{0, 1}, {1, 1}, {0, 0}}), CheckFailure);
  EXPECT_THROW(chainCover(clocks, {{0, 1}, {0, 0}}), CheckFailure);
  EXPECT_THROW(chainCover(clocks, {{1, 1}, {1, 1}}), CheckFailure);
}

}  // namespace
}  // namespace gpd
