#include "analysis/statistics.h"

#include <algorithm>

#include "clocks/chain_cover.h"
#include "clocks/lamport.h"
#include "util/check.h"

namespace gpd::analysis {

ComputationStats computeStats(const VectorClocks& clocks) {
  const Computation& comp = clocks.computation();
  ComputationStats stats;
  stats.processes = comp.processCount();
  stats.events = comp.totalEvents();
  stats.messages = static_cast<int>(comp.messages().size());

  // Height: Lamport clocks already compute longest-chain depth.
  const auto lamport = lamportClocks(comp);
  for (int v : lamport) stats.height = std::max(stats.height, v);

  // Width over non-initial events (initials are pairwise concurrent by
  // construction, which would trivialize the statistic).
  std::vector<EventId> events;
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    for (int i = 1; i < comp.eventCount(p); ++i) events.push_back({p, i});
  }
  if (!events.empty()) {
    // Dilworth: the minimum chain cover has the width's size.
    stats.width = static_cast<int>(chainCover(clocks, events).size());
  }

  // Concurrency index over distinct non-initial pairs.
  std::uint64_t concurrent = 0;
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a < events.size(); ++a) {
    for (std::size_t b = a + 1; b < events.size(); ++b) {
      ++pairs;
      concurrent += clocks.concurrent(events[a], events[b]);
    }
  }
  stats.concurrencyIndex =
      pairs == 0 ? 0.0 : static_cast<double>(concurrent) / pairs;

  stats.gridBound = 1;
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    stats.gridBound *= comp.eventCount(p);
  }
  return stats;
}

}  // namespace gpd::analysis
