#include "clocks/chain_cover.h"

#include <algorithm>

#include "graph/chains.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace gpd {

graph::RangeRows successorRows(const VectorClocks& clocks,
                               const std::vector<EventId>& events) {
  const int n = static_cast<int>(events.size());
  // Runs of one process each: positions [begin, end) of `events`.
  struct Run {
    ProcessId process;
    int begin;
    int end;
  };
  std::vector<Run> runs;
  for (int i = 0; i < n; ++i) {
    const EventId& e = events[i];
    if (!runs.empty() && runs.back().process == e.process) {
      GPD_CHECK_MSG(events[i - 1].index < e.index,
                    "chainCover: indices must ascend within a process");
      runs.back().end = i + 1;
      continue;
    }
    for (const Run& run : runs) {
      GPD_CHECK_MSG(run.process != e.process,
                    "chainCover: events must be grouped by process");
    }
    runs.push_back({e.process, i, i + 1});
  }

  graph::RangeRows rows;
  rows.rowStart.reserve(static_cast<std::size_t>(n) + 1);
  rows.ranges.reserve(static_cast<std::size_t>(n) * runs.size());
  for (int a = 0; a < n; ++a) {
    const EventId& e = events[a];
    for (const Run& run : runs) {
      if (run.process == e.process) {
        // Earlier events of e's process precede e, later ones succeed it.
        rows.add(a + 1, run.end);
        continue;
      }
      const auto first = std::partition_point(
          events.begin() + run.begin, events.begin() + run.end,
          [&](const EventId& f) { return !clocks.leq(e, f); });
      rows.add(static_cast<int>(first - events.begin()), run.end);
    }
    rows.endRow();
  }
  return rows;
}

std::vector<std::vector<EventId>> chainCover(
    const VectorClocks& clocks, const std::vector<EventId>& events) {
  GPD_OBS_COUNTER_ADD("chain_covers_built", 1);
  std::vector<std::vector<EventId>> cover;
  for (const std::vector<int>& chain :
       graph::minimumChainCover(successorRows(clocks, events))) {
    std::vector<EventId>& out = cover.emplace_back();
    out.reserve(chain.size());
    for (int idx : chain) out.push_back(events[idx]);
  }
  return cover;
}

}  // namespace gpd
