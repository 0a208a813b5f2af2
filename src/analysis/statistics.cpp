#include "analysis/statistics.h"

#include <algorithm>

#include "clocks/chain_cover.h"
#include "clocks/lamport.h"
#include "graph/chains.h"
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
  // Each event's successor row holds the events it precedes, so the rows
  // give both the width (Dilworth: the minimum chain cover's size) and the
  // comparable pairs — every other pair of distinct events is concurrent.
  const graph::RangeRows rows = successorRows(clocks, events);
  if (!events.empty()) {
    stats.width = static_cast<int>(graph::minimumChainCover(rows).size());
  }
  std::uint64_t comparable = 0;
  for (const graph::IndexRange& r : rows.ranges) {
    comparable += static_cast<std::uint64_t>(r.end - r.begin);
  }
  const std::uint64_t n = events.size();
  const std::uint64_t pairs = n * (n - 1) / 2;  // 0 when n = 0
  const std::uint64_t concurrent = pairs - comparable;
  stats.concurrencyIndex =
      pairs == 0 ? 0.0 : static_cast<double>(concurrent) / pairs;

  stats.gridBound = 1;
  for (ProcessId p = 0; p < comp.processCount(); ++p) {
    stats.gridBound *= comp.eventCount(p);
  }
  return stats;
}

}  // namespace gpd::analysis
